#include "isa/disasm.hpp"

#include <sstream>

namespace dta::isa {
namespace {

std::string reg_str(std::uint8_t idx) {
    std::string s(1, 'r');
    s += std::to_string(idx);
    return s;
}

}  // namespace

std::string disassemble(const Instruction& ins) {
    const OpInfo& oi = ins.info();
    std::ostringstream os;
    os << oi.name;
    switch (ins.op) {
        case Opcode::kNop:
        case Opcode::kFfree:
        case Opcode::kStop:
        case Opcode::kDmaWait:
            break;
        case Opcode::kMovI:
            os << ' ' << reg_str(ins.rd) << ", " << ins.imm;
            break;
        case Opcode::kSelf:
            os << ' ' << reg_str(ins.rd);
            break;
        case Opcode::kLoad:
            os << ' ' << reg_str(ins.rd) << ", frame[" << ins.imm << ']';
            break;
        case Opcode::kStore:
            os << ' ' << reg_str(ins.ra) << " -> frame(" << reg_str(ins.rb)
               << ")[" << ins.imm << ']';
            break;
        case Opcode::kLoadX:
            os << ' ' << reg_str(ins.rd) << ", frame[" << reg_str(ins.ra)
               << '+' << ins.imm << ']';
            break;
        case Opcode::kStoreX:
            os << ' ' << reg_str(ins.ra) << " -> frame(" << reg_str(ins.rb)
               << ")[" << reg_str(ins.rd) << '+' << ins.imm << ']';
            break;
        case Opcode::kRead:
            os << ' ' << reg_str(ins.rd) << ", mem[" << reg_str(ins.ra) << '+'
               << ins.imm << ']';
            if (ins.region != kNoRegion) os << " @region" << ins.region;
            break;
        case Opcode::kWrite:
            os << ' ' << reg_str(ins.ra) << " -> mem[" << reg_str(ins.rb)
               << '+' << ins.imm << ']';
            break;
        case Opcode::kLsLoad:
            os << ' ' << reg_str(ins.rd) << ", ls[" << reg_str(ins.ra) << '+'
               << ins.imm << ']';
            if (ins.region != kNoRegion) os << " via region" << ins.region;
            break;
        case Opcode::kLsStore:
            os << ' ' << reg_str(ins.ra) << " -> ls[" << reg_str(ins.rb) << '+'
               << ins.imm << ']';
            if (ins.region != kNoRegion) os << " via region" << ins.region;
            break;
        case Opcode::kFalloc:
            os << ' ' << reg_str(ins.rd) << ", code " << ins.imm;
            break;
        case Opcode::kFallocN:
            os << ' ' << reg_str(ins.rd) << ", code " << ins.imm
               << ", sc=" << reg_str(ins.ra);
            break;
        case Opcode::kDmaGet:
        case Opcode::kDmaPut:
        case Opcode::kRegSet:
            os << ' ' << reg_str(ins.ra);
            if (ins.dma) {
                os << " -> ls+" << ins.dma->ls_offset << ", " << ins.dma->bytes
                   << "B";
                if (ins.dma->stride != 0) {
                    os << " (stride " << ins.dma->stride << ", elem "
                       << ins.dma->elem_bytes << "B)";
                }
                os << ", region " << static_cast<int>(ins.dma->region);
            }
            break;
        case Opcode::kBeq:
        case Opcode::kBne:
        case Opcode::kBlt:
        case Opcode::kBge:
            os << ' ' << reg_str(ins.ra) << ", " << reg_str(ins.rb) << ", @"
               << ins.imm;
            break;
        case Opcode::kJmp:
            os << " @" << ins.imm;
            break;
        default:
            // Generic rrr / rri compute forms.
            os << ' ' << reg_str(ins.rd) << ", " << reg_str(ins.ra);
            if (oi.reads_rb) {
                os << ", " << reg_str(ins.rb);
            } else {
                os << ", " << ins.imm;
            }
            break;
    }
    return os.str();
}

std::string disassemble(const ThreadCode& tc) {
    std::ostringstream os;
    os << "thread '" << tc.name << "' (inputs=" << tc.num_inputs
       << ", regions=" << tc.annotations.size() << ")\n";
    CodeBlock last = CodeBlock::kPs;
    bool first = true;
    for (std::uint32_t ip = 0; ip < tc.size(); ++ip) {
        const CodeBlock b = tc.block_of(ip);
        if (first || b != last) {
            os << "  ." << block_name(b) << ":\n";
            last = b;
            first = false;
        }
        os << "    " << ip << ":\t" << disassemble(tc.code[ip]) << '\n';
    }
    return os.str();
}

std::string disassemble(const Program& prog) {
    std::ostringstream os;
    os << "program '" << prog.name << "' (entry=" << prog.entry << ")\n";
    for (std::size_t i = 0; i < prog.codes.size(); ++i) {
        os << "[code " << i << "] " << disassemble(prog.codes[i]);
    }
    return os.str();
}

}  // namespace dta::isa
