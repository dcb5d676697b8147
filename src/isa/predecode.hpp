/// \file predecode.hpp
/// \brief Issue facts of every static instruction, decoded once per program.
///
/// The SPU asks the same questions of the instruction at the head of its
/// pipeline on every cycle it waits there: which registers the scoreboard
/// must find ready, which issue pipe it occupies, and whether a stall is
/// charged to the prefetch block.  OpInfo answers them, but re-deriving the
/// answers on each visit costs several table reads and branches per
/// question.  predecode() folds them into one small record per instruction
/// (the fetch/decode-once shape of an instruction-set simulator); Machine
/// builds it once, right after validate_program(), and every PE reads it by
/// const reference.  The reference Interpreter keeps working on Instruction.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "isa/program.hpp"

namespace dta::isa {

/// What the issue logic needs to know about one static instruction.
struct IssueFacts {
    /// Registers the scoreboard checks before issue, in ra, rb, rd order:
    /// the sources, plus rd when it is written (WAW) or read (indexed
    /// STORE).  r0 never blocks and is dropped.  The order decides which
    /// stall reason is charged when several registers are pending.
    std::array<std::uint8_t, 3> regs{};
    std::uint8_t num_regs = 0;
    Opcode op = Opcode::kNop;
    IssuePort port = IssuePort::kCompute;
    bool in_pf = false;  ///< belongs to the PF block (stalls charge Prefetch)
};

/// Issue facts per thread code, indexed [code id][instruction index].
using DecodedProgram = std::vector<std::vector<IssueFacts>>;

/// Decodes every instruction of \p prog.  \p prog must have passed
/// validate_program() (op_info() is unchecked).
[[nodiscard]] DecodedProgram predecode(const Program& prog);

}  // namespace dta::isa
