#include "isa/predecode.hpp"

namespace dta::isa {

DecodedProgram predecode(const Program& prog) {
    DecodedProgram out(prog.codes.size());
    for (std::size_t c = 0; c < prog.codes.size(); ++c) {
        const ThreadCode& tc = prog.codes[c];
        std::vector<IssueFacts>& facts = out[c];
        facts.reserve(tc.code.size());
        for (const Instruction& ins : tc.code) {
            const OpInfo& oi = ins.info();
            IssueFacts f;
            const auto add = [&f](bool scoreboarded, std::uint8_t r) {
                if (scoreboarded && r != 0) {
                    f.regs[f.num_regs++] = r;
                }
            };
            add(oi.reads_ra, ins.ra);
            add(oi.reads_rb, ins.rb);
            add(oi.writes_rd || oi.reads_rd, ins.rd);
            f.op = ins.op;
            f.port = oi.port;
            f.in_pf = ins.block == CodeBlock::kPf;
            facts.push_back(f);
        }
    }
    return out;
}

}  // namespace dta::isa
