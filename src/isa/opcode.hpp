/// \file opcode.hpp
/// \brief Opcodes of the DTA instruction set and their static properties.
///
/// The ISA is a compact RISC-style register machine extended with the DTA
/// thread-management instructions of Table 1 of the paper (FALLOC, FFREE,
/// STOP, frame LOAD/STORE) plus the main-memory accesses the paper names
/// READ/WRITE, the local-store accesses used for prefetched data, and the
/// DMA programming instructions of Table 3 (DMAGET/DMAWAIT).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dta::isa {

/// Every instruction the simulated SPU can execute.
enum class Opcode : std::uint8_t {
    // --- compute (ALU) ------------------------------------------------
    kNop,
    kMovI,   ///< rd = imm
    kMov,    ///< rd = ra
    kAdd,    ///< rd = ra + rb
    kSub,    ///< rd = ra - rb
    kMul,    ///< rd = ra * rb           (long-latency unit)
    kDiv,    ///< rd = ra / rb (0 if rb==0; long-latency unit)
    kRem,    ///< rd = ra % rb (0 if rb==0)
    kAnd,    ///< rd = ra & rb
    kOr,     ///< rd = ra | rb
    kXor,    ///< rd = ra ^ rb
    kShl,    ///< rd = ra << (rb & 63)
    kShr,    ///< rd = ra >> (rb & 63)   (logical)
    kAddI,   ///< rd = ra + imm
    kMulI,   ///< rd = ra * imm          (long-latency unit)
    kAndI,   ///< rd = ra & imm
    kOrI,    ///< rd = ra | imm
    kXorI,   ///< rd = ra ^ imm
    kShlI,   ///< rd = ra << (imm & 63)
    kShrI,   ///< rd = ra >> (imm & 63)  (logical)
    kSlt,    ///< rd = (signed) ra < rb
    kSltI,   ///< rd = (signed) ra < imm
    kSeq,    ///< rd = ra == rb
    kSelf,   ///< rd = packed frame handle of the executing thread

    // --- control flow (within a thread) --------------------------------
    kBeq,    ///< if (ra == rb) goto imm
    kBne,    ///< if (ra != rb) goto imm
    kBlt,    ///< if ((signed) ra < rb) goto imm
    kBge,    ///< if ((signed) ra >= rb) goto imm
    kJmp,    ///< goto imm

    // --- frame memory (DTA LOAD/STORE of Table 1) ----------------------
    kLoad,   ///< rd = own_frame[imm]           (64-bit word)
    kStore,  ///< frame(rb)[imm] = ra           (64-bit word, decrements SC)
    kLoadX,  ///< rd = own_frame[ra + imm]      (register-indexed LOAD)
    kStoreX, ///< frame(rb)[rd + imm] = ra      (register-indexed STORE)

    // --- main memory (the paper's READ/WRITE) --------------------------
    kRead,   ///< rd = zext(mem32[ra + imm])    (blocking round trip)
    kWrite,  ///< mem32[rb + imm] = lo32(ra)    (posted)

    // --- local store (prefetched global data) --------------------------
    kLsLoad,  ///< rd = zext(ls32[translate(ra + imm)])
    kLsStore, ///< ls32[translate(rb + imm)] = lo32(ra)

    // --- thread management (Table 1) ------------------------------------
    kFalloc,  ///< rd = frame handle for code imm (SC = code's input count)
    kFallocN, ///< rd = frame handle for code imm with SC = ra
    kFfree,   ///< release the executing thread's own frame
    kStop,    ///< thread complete; must be the last instruction

    // --- DMA prefetch (Table 3 / Section 3) -----------------------------
    kDmaGet,  ///< enqueue MFC get: main mem [ra ..] -> LS staging (DmaArgs)
    kDmaWait, ///< suspend until all of this thread's tags complete (last PF
              ///< instruction, or in PS to drain DMAPUT write-backs)

    // --- DMA write-back (this repo's extension of the mechanism) ----------
    kRegSet,  ///< fill a region-table entry without a transfer: lets LSSTORE
              ///< stage *output* data in the LS (ra = main-memory base)
    kDmaPut,  ///< enqueue MFC put: LS staging -> main mem [ra ..] (DmaArgs);
              ///< the post-store analogue of DMAGET
};

/// Issue port an opcode occupies — the SPU is dual-issue with one memory
/// pipe and one compute pipe per cycle (Section 4.1 of the paper).
enum class IssuePort : std::uint8_t {
    kCompute,  ///< ALU / branch pipe
    kMemory,   ///< LS / main-memory / scheduler-request pipe
    kControl,  ///< single-issue, serialising (STOP, DMAWAIT)
};

/// Coarse latency class; the concrete cycle counts come from CoreConfig.
enum class LatencyClass : std::uint8_t {
    kAlu,      ///< single-cycle integer op
    kMulDiv,   ///< long-latency integer unit
    kBranch,   ///< resolves at issue; taken branches pay the flush penalty
    kLocal,    ///< local-store access (frame LOAD, LSLOAD/LSSTORE)
    kDynamic,  ///< completion driven by an asynchronous reply (READ, FALLOC)
    kPosted,   ///< fire-and-forget through a store/command queue
    kControl,  ///< STOP / DMAWAIT / FFREE handshakes
};

/// Static description of an opcode.
struct OpInfo {
    std::string_view name;    ///< mnemonic for the disassembler
    IssuePort port;           ///< which issue pipe it occupies
    LatencyClass latency;     ///< coarse latency class
    bool writes_rd;           ///< defines register rd
    bool reads_ra;            ///< uses register ra
    bool reads_rb;            ///< uses register rb
    bool is_branch;           ///< participates in control flow
    bool reads_rd = false;    ///< uses rd as a *source* (indexed STORE)
};

namespace detail {

constexpr OpInfo make(std::string_view name, IssuePort port, LatencyClass lat,
                      bool wr_rd, bool rd_ra, bool rd_rb, bool branch = false,
                      bool rd_rd = false) {
    return OpInfo{name, port, lat, wr_rd, rd_ra, rd_rb, branch, rd_rd};
}

// Order must match the Opcode enumeration exactly; verified below.
inline constexpr std::array kOpTable = {
    // compute
    make("nop", IssuePort::kCompute, LatencyClass::kAlu, false, false, false),
    make("movi", IssuePort::kCompute, LatencyClass::kAlu, true, false, false),
    make("mov", IssuePort::kCompute, LatencyClass::kAlu, true, true, false),
    make("add", IssuePort::kCompute, LatencyClass::kAlu, true, true, true),
    make("sub", IssuePort::kCompute, LatencyClass::kAlu, true, true, true),
    make("mul", IssuePort::kCompute, LatencyClass::kMulDiv, true, true, true),
    make("div", IssuePort::kCompute, LatencyClass::kMulDiv, true, true, true),
    make("rem", IssuePort::kCompute, LatencyClass::kMulDiv, true, true, true),
    make("and", IssuePort::kCompute, LatencyClass::kAlu, true, true, true),
    make("or", IssuePort::kCompute, LatencyClass::kAlu, true, true, true),
    make("xor", IssuePort::kCompute, LatencyClass::kAlu, true, true, true),
    make("shl", IssuePort::kCompute, LatencyClass::kAlu, true, true, true),
    make("shr", IssuePort::kCompute, LatencyClass::kAlu, true, true, true),
    make("addi", IssuePort::kCompute, LatencyClass::kAlu, true, true, false),
    make("muli", IssuePort::kCompute, LatencyClass::kMulDiv, true, true, false),
    make("andi", IssuePort::kCompute, LatencyClass::kAlu, true, true, false),
    make("ori", IssuePort::kCompute, LatencyClass::kAlu, true, true, false),
    make("xori", IssuePort::kCompute, LatencyClass::kAlu, true, true, false),
    make("shli", IssuePort::kCompute, LatencyClass::kAlu, true, true, false),
    make("shri", IssuePort::kCompute, LatencyClass::kAlu, true, true, false),
    make("slt", IssuePort::kCompute, LatencyClass::kAlu, true, true, true),
    make("slti", IssuePort::kCompute, LatencyClass::kAlu, true, true, false),
    make("seq", IssuePort::kCompute, LatencyClass::kAlu, true, true, true),
    make("self", IssuePort::kCompute, LatencyClass::kAlu, true, false, false),
    // control flow
    make("beq", IssuePort::kCompute, LatencyClass::kBranch, false, true, true, true),
    make("bne", IssuePort::kCompute, LatencyClass::kBranch, false, true, true, true),
    make("blt", IssuePort::kCompute, LatencyClass::kBranch, false, true, true, true),
    make("bge", IssuePort::kCompute, LatencyClass::kBranch, false, true, true, true),
    make("jmp", IssuePort::kCompute, LatencyClass::kBranch, false, false, false, true),
    // frame memory
    make("load", IssuePort::kMemory, LatencyClass::kLocal, true, false, false),
    make("store", IssuePort::kMemory, LatencyClass::kPosted, false, true, true),
    make("loadx", IssuePort::kMemory, LatencyClass::kLocal, true, true, false),
    make("storex", IssuePort::kMemory, LatencyClass::kPosted, false, true, true,
         false, /*rd_rd=*/true),
    // main memory
    make("read", IssuePort::kMemory, LatencyClass::kDynamic, true, true, false),
    make("write", IssuePort::kMemory, LatencyClass::kPosted, false, true, true),
    // local store
    make("lsload", IssuePort::kMemory, LatencyClass::kLocal, true, true, false),
    make("lsstore", IssuePort::kMemory, LatencyClass::kPosted, false, true, true),
    // thread management
    make("falloc", IssuePort::kMemory, LatencyClass::kDynamic, true, false, false),
    make("fallocn", IssuePort::kMemory, LatencyClass::kDynamic, true, true, false),
    make("ffree", IssuePort::kMemory, LatencyClass::kControl, false, false, false),
    make("stop", IssuePort::kControl, LatencyClass::kControl, false, false, false),
    // DMA
    make("dmaget", IssuePort::kMemory, LatencyClass::kPosted, false, true, false),
    make("dmawait", IssuePort::kControl, LatencyClass::kControl, false, false, false),
    make("regset", IssuePort::kCompute, LatencyClass::kAlu, false, true, false),
    make("dmaput", IssuePort::kMemory, LatencyClass::kPosted, false, true, false),
};

static_assert(kOpTable.size() ==
                  static_cast<std::size_t>(Opcode::kDmaPut) + 1,
              "opcode table out of sync with Opcode enum");

}  // namespace detail

/// Returns the static description of \p op.  Unchecked: \p op must be a
/// declared enumerator.  validate_program() rejects any other opcode before
/// a machine or interpreter reads this table, so the simulator's issue
/// checks pay one array index.
[[nodiscard]] constexpr const OpInfo& op_info(Opcode op) {
    return detail::kOpTable[static_cast<std::size_t>(op)];
}

/// Mnemonic of \p op (range-checked: safe on unvalidated input).
[[nodiscard]] std::string_view op_name(Opcode op);

/// Total number of opcodes (for iteration in tests and range checks).
[[nodiscard]] constexpr std::size_t op_count() {
    return detail::kOpTable.size();
}

}  // namespace dta::isa
