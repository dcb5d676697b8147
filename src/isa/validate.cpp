#include "isa/validate.hpp"

#include <string>

#include "sim/check.hpp"

namespace dta::isa {
namespace {

[[noreturn]] void fail(const ThreadCode& tc, std::uint32_t ip,
                       const std::string& why) {
    DTA_SIM_ERROR("invalid thread code '" + tc.name + "' @" +
                  std::to_string(ip) + ": " + why);
}

std::string opcode_out_of_range(const Instruction& ins) {
    return "opcode " + std::to_string(static_cast<unsigned>(ins.op)) +
           " out of range (the ISA has " + std::to_string(op_count()) +
           " opcodes)";
}

/// Every later check (and the simulator's issue logic) reads OpInfo through
/// the unchecked op_info(), so an opcode outside the table is rejected
/// first — in the code and in every annotation's address code.
void check_opcodes(const ThreadCode& tc) {
    const auto out_of_range = [](const Instruction& ins) {
        return static_cast<std::size_t>(ins.op) >= op_count();
    };
    for (std::uint32_t ip = 0; ip < tc.size(); ++ip) {
        if (out_of_range(tc.code[ip])) {
            fail(tc, ip, opcode_out_of_range(tc.code[ip]));
        }
    }
    for (std::size_t i = 0; i < tc.annotations.size(); ++i) {
        for (const Instruction& ins : tc.annotations[i].addr_code) {
            if (out_of_range(ins)) {
                DTA_SIM_ERROR("annotation " + std::to_string(i) + " of '" +
                              tc.name + "': " + opcode_out_of_range(ins));
            }
        }
    }
}

void check_registers(const ThreadCode& tc, std::uint32_t ip,
                     const Instruction& ins) {
    const OpInfo& oi = ins.info();
    if ((oi.writes_rd || oi.reads_rd) && ins.rd >= kNumRegs) {
        fail(tc, ip, "rd out of range");
    }
    if (oi.reads_ra && ins.ra >= kNumRegs) fail(tc, ip, "ra out of range");
    if (oi.reads_rb && ins.rb >= kNumRegs) fail(tc, ip, "rb out of range");
}

/// [begin, end) of the block that contains instruction index ip.
std::pair<std::uint32_t, std::uint32_t> block_range(const ThreadCode& tc,
                                                    CodeBlock b) {
    switch (b) {
        case CodeBlock::kPf: return {0, tc.pl_begin};
        case CodeBlock::kPl: return {tc.pl_begin, tc.ex_begin};
        case CodeBlock::kEx: return {tc.ex_begin, tc.ps_begin};
        case CodeBlock::kPs: return {tc.ps_begin, tc.size()};
    }
    return {0, 0};
}

void check_block_legality(const ThreadCode& tc, std::uint32_t ip,
                          const Instruction& ins) {
    const CodeBlock b = ins.block;
    switch (ins.op) {
        case Opcode::kLoad:
        case Opcode::kLoadX:
            if (b != CodeBlock::kPf && b != CodeBlock::kPl) {
                fail(tc, ip, "frame LOAD allowed only in PF/PL blocks");
            }
            break;
        case Opcode::kStore:
        case Opcode::kStoreX:
            if (b != CodeBlock::kPs) {
                fail(tc, ip, "frame STORE allowed only in the PS block");
            }
            break;
        case Opcode::kRead:
        case Opcode::kWrite:
            if (b != CodeBlock::kEx) {
                fail(tc, ip, "main-memory READ/WRITE allowed only in EX");
            }
            break;
        case Opcode::kLsLoad:
        case Opcode::kLsStore:
            if (b != CodeBlock::kPl && b != CodeBlock::kEx) {
                fail(tc, ip, "local-store access allowed only in PL/EX");
            }
            break;
        case Opcode::kDmaGet:
            if (b != CodeBlock::kPf) {
                fail(tc, ip, "DMAGET allowed only in the PF block");
            }
            break;
        case Opcode::kDmaWait:
            if (b != CodeBlock::kPf && b != CodeBlock::kPs) {
                fail(tc, ip,
                     "DMAWAIT allowed only in PF (prefetch) or PS "
                     "(write-back drain)");
            }
            break;
        case Opcode::kRegSet:
            if (b == CodeBlock::kPs) {
                fail(tc, ip, "REGSET must precede the accesses it serves "
                             "(PF/PL/EX only)");
            }
            break;
        case Opcode::kDmaPut:
            if (b != CodeBlock::kPs) {
                fail(tc, ip, "DMAPUT allowed only in the PS block");
            }
            break;
        case Opcode::kFalloc:
        case Opcode::kFallocN:
            if (b == CodeBlock::kPf) {
                fail(tc, ip, "FALLOC not allowed in the PF block");
            }
            break;
        case Opcode::kFfree:
            if (b != CodeBlock::kPs) {
                fail(tc, ip, "FFREE allowed only in the PS block");
            }
            break;
        case Opcode::kStop:
            if (ip + 1 != tc.size()) {
                fail(tc, ip, "STOP must be the final instruction");
            }
            break;
        default:
            break;  // compute / branch ops are legal everywhere
    }
}

void check_dma(const ThreadCode& tc, std::uint32_t ip, const Instruction& ins) {
    if (ins.op != Opcode::kDmaGet && ins.op != Opcode::kDmaPut &&
        ins.op != Opcode::kRegSet) {
        return;
    }
    const std::string what(ins.info().name);
    if (!ins.dma.has_value()) fail(tc, ip, what + " without DmaArgs");
    const DmaArgs& a = *ins.dma;
    if (a.bytes == 0) fail(tc, ip, what + " of zero bytes");
    if (ins.region != static_cast<std::int16_t>(a.region)) {
        fail(tc, ip, what + " region field mismatch");
    }
    if (a.stride != 0) {
        if (a.elem_bytes == 0) {
            fail(tc, ip, "strided " + what + " with elem_bytes=0");
        }
        if (a.elem_bytes > a.stride) {
            fail(tc, ip, "strided " + what + " with elem_bytes > stride");
        }
        if (a.bytes % a.elem_bytes != 0) {
            fail(tc, ip, "strided " + what + " size not a multiple of "
                         "elem_bytes");
        }
    }
}

}  // namespace

void validate_thread_code(const ThreadCode& tc) {
    const std::uint32_t n = tc.size();
    if (n == 0) {
        DTA_SIM_ERROR("thread code '" + tc.name + "' is empty");
    }
    check_opcodes(tc);
    if (!(tc.pl_begin <= tc.ex_begin && tc.ex_begin <= tc.ps_begin &&
          tc.ps_begin <= n)) {
        DTA_SIM_ERROR("thread code '" + tc.name +
                      "' has non-monotonic block boundaries");
    }
    if (tc.code.back().op != Opcode::kStop) {
        DTA_SIM_ERROR("thread code '" + tc.name + "' does not end in STOP");
    }

    bool saw_dmaget = false;
    bool saw_dmaput = false;
    bool saw_pf_wait = false;
    bool saw_ps_wait = false;
    std::uint32_t stop_count = 0;
    for (std::uint32_t ip = 0; ip < n; ++ip) {
        const Instruction& ins = tc.code[ip];
        if (ins.block != tc.block_of(ip)) {
            fail(tc, ip, "instruction block tag disagrees with block ranges");
        }
        check_registers(tc, ip, ins);
        check_block_legality(tc, ip, ins);
        check_dma(tc, ip, ins);
        if (ins.op == Opcode::kStop) ++stop_count;
        if (ins.op == Opcode::kDmaGet) saw_dmaget = true;
        if (ins.op == Opcode::kDmaPut) saw_dmaput = true;
        if (ins.op == Opcode::kDmaWait) {
            if (ins.block == CodeBlock::kPf) {
                saw_pf_wait = true;
                if (ip + 1 != tc.pl_begin) {
                    fail(tc, ip, "PF DMAWAIT must be the last PF instruction");
                }
            } else {
                saw_ps_wait = true;
            }
        }
        if (ins.info().is_branch) {
            const auto [lo, hi] = block_range(tc, ins.block);
            const auto target = ins.imm;
            // A target equal to the block's end boundary is the natural
            // "exit the loop, fall into the next block" idiom and is legal;
            // anything past it (or before the block) is not.
            if (target < lo || target > hi ||
                target >= static_cast<std::int64_t>(n)) {
                fail(tc, ip, "branch target leaves its code block");
            }
        }
        if (ins.region != kNoRegion &&
            (ins.op == Opcode::kRead || ins.op == Opcode::kLsLoad ||
             ins.op == Opcode::kLsStore)) {
            // READ annotations reference the compiler annotations; LSLOAD /
            // LSSTORE regions reference the runtime region table, whose
            // entries are created by DMAGETs.  Both must be small indices.
            if (ins.region < 0 ||
                (ins.op == Opcode::kRead &&
                 static_cast<std::size_t>(ins.region) >=
                     tc.annotations.size())) {
                fail(tc, ip, "region annotation index out of range");
            }
        }
    }
    if (stop_count != 1) {
        DTA_SIM_ERROR("thread code '" + tc.name +
                      "' must contain exactly one STOP");
    }
    if (saw_dmaget && !saw_pf_wait) {
        DTA_SIM_ERROR("thread code '" + tc.name +
                      "' prefetches but never waits for the DMA");
    }
    if (saw_dmaput && !saw_ps_wait) {
        DTA_SIM_ERROR("thread code '" + tc.name +
                      "' writes back via DMA but never drains it");
    }

    // Annotations must themselves be sane.
    for (std::size_t i = 0; i < tc.annotations.size(); ++i) {
        const RegionAnnotation& ann = tc.annotations[i];
        const std::string where =
            "annotation " + std::to_string(i) + " of '" + tc.name + "'";
        if (ann.bytes == 0) DTA_SIM_ERROR(where + ": zero bytes");
        if (ann.addr_reg >= kNumRegs) DTA_SIM_ERROR(where + ": bad addr_reg");
        if (ann.stride != 0 &&
            (ann.elem_bytes == 0 || ann.bytes % ann.elem_bytes != 0)) {
            DTA_SIM_ERROR(where + ": inconsistent strided shape");
        }
        for (const Instruction& ins : ann.addr_code) {
            const OpInfo& oi = ins.info();
            const bool ok = oi.port == IssuePort::kCompute ||
                            ins.op == Opcode::kLoad;
            if (!ok || oi.is_branch) {
                DTA_SIM_ERROR(where +
                              ": addr_code may only contain straight-line "
                              "ALU ops and frame LOADs");
            }
        }
    }
}

void validate_program(const Program& prog) {
    if (prog.codes.empty()) {
        DTA_SIM_ERROR("program '" + prog.name + "' has no thread codes");
    }
    if (prog.entry >= prog.codes.size()) {
        DTA_SIM_ERROR("program '" + prog.name + "' entry id out of range");
    }
    for (const auto& tc : prog.codes) {
        validate_thread_code(tc);
        for (std::uint32_t ip = 0; ip < tc.size(); ++ip) {
            const Instruction& ins = tc.code[ip];
            if (ins.op == Opcode::kFalloc || ins.op == Opcode::kFallocN) {
                if (static_cast<std::size_t>(ins.imm) >= prog.codes.size()) {
                    DTA_SIM_ERROR("'" + tc.name + "' @" + std::to_string(ip) +
                                  ": FALLOC target code id out of range");
                }
            }
        }
    }
}

}  // namespace dta::isa
