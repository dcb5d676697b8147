#include "isa/asmtext.hpp"

#include <charconv>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "isa/validate.hpp"
#include "sim/check.hpp"

namespace dta::isa {
namespace {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

const char* block_marker(CodeBlock b) {
    switch (b) {
        case CodeBlock::kPf: return ".pf";
        case CodeBlock::kPl: return ".pl";
        case CodeBlock::kEx: return ".ex";
        case CodeBlock::kPs: return ".ps";
    }
    return ".?";
}

std::string reg_str(std::uint8_t r) {
    std::string s(1, 'r');
    s += std::to_string(r);
    return s;
}

/// Renders one instruction in the parse-friendly syntax.  Branch targets
/// are rendered as "L<index>"; the caller guarantees a matching label line.
std::string write_instr(const Instruction& ins) {
    std::ostringstream os;
    const auto& oi = ins.info();
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
        case Opcode::kMov:
            os << ' ' << reg_str(ins.rd) << ", " << reg_str(ins.ra);
            break;
        case Opcode::kLoad:
            os << ' ' << reg_str(ins.rd) << ", frame[" << ins.imm << ']';
            break;
        case Opcode::kLoadX:
            os << ' ' << reg_str(ins.rd) << ", frame[" << reg_str(ins.ra)
               << '+' << ins.imm << ']';
            break;
        case Opcode::kStore:
            os << ' ' << reg_str(ins.ra) << ", frame(" << reg_str(ins.rb)
               << ")[" << ins.imm << ']';
            break;
        case Opcode::kStoreX:
            os << ' ' << reg_str(ins.ra) << ", frame(" << reg_str(ins.rb)
               << ")[" << reg_str(ins.rd) << '+' << ins.imm << ']';
            break;
        case Opcode::kRead:
            os << ' ' << reg_str(ins.rd) << ", mem[" << reg_str(ins.ra) << '+'
               << ins.imm << ']';
            if (ins.region != kNoRegion) os << " @region" << ins.region;
            break;
        case Opcode::kWrite:
            os << ' ' << reg_str(ins.ra) << ", mem[" << reg_str(ins.rb) << '+'
               << ins.imm << ']';
            break;
        case Opcode::kLsLoad:
            os << ' ' << reg_str(ins.rd) << ", ls[" << reg_str(ins.ra) << '+'
               << ins.imm << ']';
            if (ins.region != kNoRegion) os << " @region" << ins.region;
            break;
        case Opcode::kLsStore:
            os << ' ' << reg_str(ins.ra) << ", ls[" << reg_str(ins.rb) << '+'
               << ins.imm << ']';
            if (ins.region != kNoRegion) os << " @region" << ins.region;
            break;
        case Opcode::kFalloc:
            os << ' ' << reg_str(ins.rd) << ", code=" << ins.imm;
            break;
        case Opcode::kFallocN:
            os << ' ' << reg_str(ins.rd) << ", code=" << ins.imm
               << ", sc=" << reg_str(ins.ra);
            break;
        case Opcode::kDmaGet:
        case Opcode::kDmaPut:
        case Opcode::kRegSet: {
            DTA_CHECK(ins.dma.has_value());
            const DmaArgs& a = *ins.dma;
            os << ' ' << reg_str(ins.ra) << ", ls+" << a.ls_offset
               << ", bytes=" << a.bytes
               << ", region=" << static_cast<int>(a.region);
            if (a.stride != 0) {
                os << ", stride=" << a.stride << ", elem=" << a.elem_bytes;
            }
            break;
        }
        case Opcode::kBeq:
        case Opcode::kBne:
        case Opcode::kBlt:
        case Opcode::kBge:
            os << ' ' << reg_str(ins.ra) << ", " << reg_str(ins.rb) << ", L"
               << ins.imm;
            break;
        case Opcode::kJmp:
            os << " L" << ins.imm;
            break;
        default:  // generic rrr / rri compute forms
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

}  // namespace

std::string to_assembly(const ThreadCode& tc) {
    std::ostringstream os;
    os << "thread \"" << tc.name << "\" inputs=" << tc.num_inputs << '\n';
    for (const RegionAnnotation& ann : tc.annotations) {
        os << "  region bytes=" << ann.bytes << " reg=r"
           << static_cast<int>(ann.addr_reg);
        if (ann.stride != 0) {
            os << " stride=" << ann.stride << " elem=" << ann.elem_bytes;
        }
        os << " {\n";
        for (const Instruction& ins : ann.addr_code) {
            os << "    " << write_instr(ins) << '\n';
        }
        os << "  }\n";
    }
    std::set<std::int64_t> targets;
    for (const Instruction& ins : tc.code) {
        if (ins.info().is_branch) {
            targets.insert(ins.imm);
        }
    }
    CodeBlock last = CodeBlock::kPs;
    bool first = true;
    for (std::uint32_t ip = 0; ip < tc.size(); ++ip) {
        const CodeBlock b = tc.block_of(ip);
        if (first || b != last) {
            os << "  " << block_marker(b) << '\n';
            last = b;
            first = false;
        }
        if (targets.count(static_cast<std::int64_t>(ip)) != 0) {
            os << "  L" << ip << ":\n";
        }
        os << "    " << write_instr(tc.code[ip]) << '\n';
    }
    os << "end\n";
    return os.str();
}

std::string to_assembly(const Program& prog) {
    std::ostringstream os;
    os << "program \"" << prog.name << "\" entry=" << prog.entry << "\n\n";
    for (const ThreadCode& tc : prog.codes) {
        os << to_assembly(tc) << '\n';
    }
    return os.str();
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

struct Cursor {
    std::string_view text;
    std::size_t pos = 0;
    int line = 0;

    /// Next non-empty, comment-stripped, trimmed line; empty at EOF.
    std::string next_line() {
        while (pos < text.size()) {
            std::size_t eol = text.find('\n', pos);
            if (eol == std::string_view::npos) {
                eol = text.size();
            }
            std::string raw(text.substr(pos, eol - pos));
            pos = eol + 1;
            ++line;
            const std::size_t hash = raw.find('#');
            if (hash != std::string::npos) {
                raw.erase(hash);
            }
            const auto b = raw.find_first_not_of(" \t\r");
            if (b == std::string::npos) {
                continue;
            }
            const auto e = raw.find_last_not_of(" \t\r");
            return raw.substr(b, e - b + 1);
        }
        return {};
    }
};

[[noreturn]] void fail(int line, const std::string& why) {
    DTA_SIM_ERROR("assembly parse error at line " + std::to_string(line) +
                  ": " + why);
}

/// "k=v" extraction out of a token list; returns whether found.
bool kv(const std::vector<std::string>& toks, const std::string& key,
        std::string& out) {
    const std::string prefix = key + "=";
    for (const auto& t : toks) {
        if (t.rfind(prefix, 0) == 0) {
            out = t.substr(prefix.size());
            return true;
        }
    }
    return false;
}

std::int64_t parse_int(const std::string& s, int line) {
    std::int64_t v = 0;
    const char* b = s.data();
    const char* e = s.data() + s.size();
    const auto [p, ec] = std::from_chars(b, e, v);
    if (ec != std::errc() || p != e) {
        fail(line, "expected integer, got '" + s + "'");
    }
    return v;
}

std::uint8_t parse_reg(const std::string& s, int line) {
    if (s.size() < 2 || s[0] != 'r') {
        fail(line, "expected register, got '" + s + "'");
    }
    const std::int64_t idx = parse_int(s.substr(1), line);
    if (idx < 0 || idx >= kNumRegs) {
        fail(line, "register out of range: '" + s + "'");
    }
    return static_cast<std::uint8_t>(idx);
}

/// Splits "a, b, c" on commas and trims each piece.
std::vector<std::string> split_operands(const std::string& s) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            comma = s.size();
        }
        std::string piece = s.substr(start, comma - start);
        const auto b = piece.find_first_not_of(" \t");
        if (b != std::string::npos) {
            const auto e = piece.find_last_not_of(" \t");
            out.push_back(piece.substr(b, e - b + 1));
        }
        start = comma + 1;
        if (comma == s.size()) {
            break;
        }
    }
    return out;
}

/// Parses "frame[3]", "frame[r4+3]", "frame(r9)[1]", "frame(r9)[r4+1]",
/// "mem[r8+4]", "ls[r8+4]".
struct AddrOperand {
    bool has_frame_reg = false;
    std::uint8_t frame_reg = 0;
    bool has_index_reg = false;
    std::uint8_t index_reg = 0;
    std::int64_t offset = 0;
};

AddrOperand parse_addr(const std::string& s, const std::string& kind,
                       int line) {
    AddrOperand a;
    std::size_t at = kind.size();
    if (s.rfind(kind, 0) != 0) {
        fail(line, "expected " + kind + " operand, got '" + s + "'");
    }
    if (at < s.size() && s[at] == '(') {
        const std::size_t close = s.find(')', at);
        if (close == std::string::npos) fail(line, "unclosed '(' in '" + s + "'");
        a.has_frame_reg = true;
        a.frame_reg = parse_reg(s.substr(at + 1, close - at - 1), line);
        at = close + 1;
    }
    if (at >= s.size() || s[at] != '[') {
        fail(line, "expected '[' in '" + s + "'");
    }
    const std::size_t close = s.find(']', at);
    if (close == std::string::npos) fail(line, "unclosed '[' in '" + s + "'");
    std::string inner = s.substr(at + 1, close - at - 1);
    const std::size_t plus = inner.find('+');
    if (!inner.empty() && inner[0] == 'r' && plus != std::string::npos) {
        a.has_index_reg = true;
        a.index_reg = parse_reg(inner.substr(0, plus), line);
        a.offset = parse_int(inner.substr(plus + 1), line);
    } else {
        a.offset = parse_int(inner, line);
    }
    return a;
}

/// The label-fixup record for a branch instruction.
struct Fixup {
    std::size_t instr_index;
    std::string label;
    int line;
};

Opcode opcode_by_name(const std::string& name, int line) {
    for (std::size_t i = 0; i < op_count(); ++i) {
        const auto op = static_cast<Opcode>(i);
        if (op_name(op) == name) {
            return op;
        }
    }
    fail(line, "unknown mnemonic '" + name + "'");
}

/// Parses one instruction line (no labels / markers).  Branch targets are
/// recorded as fixups against label names.
Instruction parse_instr(const std::string& text, int line,
                        std::vector<Fixup>* fixups, std::size_t instr_index) {
    const std::size_t sp = text.find(' ');
    const std::string mnem = text.substr(0, sp);
    std::string rest = sp == std::string::npos ? "" : text.substr(sp + 1);
    // Peel "@regionN" before comma splitting (it is space-separated).
    std::int16_t region = kNoRegion;
    const std::size_t at = rest.find("@region");
    if (at != std::string::npos) {
        region = static_cast<std::int16_t>(
            parse_int(rest.substr(at + 7), line));
        rest.erase(at);
    }
    auto ops = split_operands(rest);
    const Opcode op = opcode_by_name(mnem, line);
    const auto& oi = op_info(op);
    Instruction ins;
    ins.op = op;
    ins.region = region;

    const auto need = [&](std::size_t n) {
        if (ops.size() != n) {
            fail(line, mnem + " expects " + std::to_string(n) +
                           " operands, got " + std::to_string(ops.size()));
        }
    };

    switch (op) {
        case Opcode::kNop:
        case Opcode::kFfree:
        case Opcode::kStop:
        case Opcode::kDmaWait:
            need(0);
            break;
        case Opcode::kSelf:
            need(1);
            ins.rd = parse_reg(ops[0], line);
            break;
        case Opcode::kMovI:
            need(2);
            ins.rd = parse_reg(ops[0], line);
            ins.imm = parse_int(ops[1], line);
            break;
        case Opcode::kMov:
            need(2);
            ins.rd = parse_reg(ops[0], line);
            ins.ra = parse_reg(ops[1], line);
            break;
        case Opcode::kLoad:
        case Opcode::kLoadX: {
            need(2);
            ins.rd = parse_reg(ops[0], line);
            const AddrOperand a = parse_addr(ops[1], "frame", line);
            ins.op = a.has_index_reg ? Opcode::kLoadX : Opcode::kLoad;
            ins.ra = a.index_reg;
            ins.imm = a.offset;
            break;
        }
        case Opcode::kStore:
        case Opcode::kStoreX: {
            need(2);
            ins.ra = parse_reg(ops[0], line);
            const AddrOperand a = parse_addr(ops[1], "frame", line);
            if (!a.has_frame_reg) {
                fail(line, "store needs a frame(rN) handle");
            }
            ins.op = a.has_index_reg ? Opcode::kStoreX : Opcode::kStore;
            ins.rb = a.frame_reg;
            ins.rd = a.index_reg;
            ins.imm = a.offset;
            break;
        }
        case Opcode::kRead: {
            need(2);
            ins.rd = parse_reg(ops[0], line);
            const AddrOperand a = parse_addr(ops[1], "mem", line);
            ins.ra = a.index_reg;
            ins.imm = a.offset;
            break;
        }
        case Opcode::kWrite: {
            need(2);
            ins.ra = parse_reg(ops[0], line);
            const AddrOperand a = parse_addr(ops[1], "mem", line);
            ins.rb = a.index_reg;
            ins.imm = a.offset;
            break;
        }
        case Opcode::kLsLoad: {
            need(2);
            ins.rd = parse_reg(ops[0], line);
            const AddrOperand a = parse_addr(ops[1], "ls", line);
            ins.ra = a.index_reg;
            ins.imm = a.offset;
            break;
        }
        case Opcode::kLsStore: {
            need(2);
            ins.ra = parse_reg(ops[0], line);
            const AddrOperand a = parse_addr(ops[1], "ls", line);
            ins.rb = a.index_reg;
            ins.imm = a.offset;
            break;
        }
        case Opcode::kFalloc:
        case Opcode::kFallocN: {
            ins.rd = parse_reg(ops.at(0), line);
            std::string v;
            if (!kv(ops, "code", v)) fail(line, "falloc needs code=<id>");
            ins.imm = parse_int(v, line);
            if (op == Opcode::kFallocN) {
                if (!kv(ops, "sc", v)) fail(line, "fallocn needs sc=<reg>");
                ins.ra = parse_reg(v, line);
            }
            break;
        }
        case Opcode::kDmaGet:
        case Opcode::kDmaPut:
        case Opcode::kRegSet: {
            ins.ra = parse_reg(ops.at(0), line);
            DmaArgs args;
            std::string v;
            if (ops.size() < 2 || ops[1].rfind("ls+", 0) != 0) {
                fail(line, mnem + " needs 'ls+<offset>' second operand");
            }
            args.ls_offset = static_cast<std::uint32_t>(
                parse_int(ops[1].substr(3), line));
            if (!kv(ops, "bytes", v)) fail(line, mnem + " needs bytes=<n>");
            args.bytes = static_cast<std::uint32_t>(parse_int(v, line));
            if (!kv(ops, "region", v)) fail(line, mnem + " needs region=<n>");
            args.region = static_cast<std::uint8_t>(parse_int(v, line));
            if (kv(ops, "stride", v)) {
                args.stride = static_cast<std::uint32_t>(parse_int(v, line));
                if (!kv(ops, "elem", v)) {
                    fail(line, "strided " + mnem + " needs elem=<n>");
                }
                args.elem_bytes =
                    static_cast<std::uint32_t>(parse_int(v, line));
            }
            ins.region = static_cast<std::int16_t>(args.region);
            ins.dma = args;
            break;
        }
        case Opcode::kBeq:
        case Opcode::kBne:
        case Opcode::kBlt:
        case Opcode::kBge:
            need(3);
            ins.ra = parse_reg(ops[0], line);
            ins.rb = parse_reg(ops[1], line);
            DTA_CHECK(fixups != nullptr);
            fixups->push_back(Fixup{instr_index, ops[2], line});
            break;
        case Opcode::kJmp:
            need(1);
            DTA_CHECK(fixups != nullptr);
            fixups->push_back(Fixup{instr_index, ops[0], line});
            break;
        default:
            // Generic compute forms: rrr or rri.
            need(oi.reads_rb ? 3 : 3);
            ins.rd = parse_reg(ops[0], line);
            ins.ra = parse_reg(ops[1], line);
            if (oi.reads_rb) {
                ins.rb = parse_reg(ops[2], line);
            } else {
                ins.imm = parse_int(ops[2], line);
            }
            break;
    }
    return ins;
}

/// Parses one "thread ... end" section; the header line is already read.
ThreadCode parse_thread(Cursor& cur, const std::string& header) {
    // header: thread "<name>" inputs=<n>
    const std::size_t q1 = header.find('"');
    const std::size_t q2 = header.find('"', q1 + 1);
    if (q1 == std::string::npos || q2 == std::string::npos) {
        fail(cur.line, "thread header needs a quoted name");
    }
    ThreadCode tc;
    tc.name = header.substr(q1 + 1, q2 - q1 - 1);
    std::string v;
    auto toks = split_operands(header.substr(q2 + 1));
    // 'inputs=N' may be space-separated; re-split on spaces too.
    {
        std::istringstream is(header.substr(q2 + 1));
        std::string t;
        toks.clear();
        while (is >> t) {
            toks.push_back(t);
        }
    }
    if (!kv(toks, "inputs", v)) fail(cur.line, "thread header needs inputs=");
    tc.num_inputs = static_cast<std::uint32_t>(parse_int(v, cur.line));

    std::map<std::string, std::uint32_t> labels;
    std::vector<Fixup> fixups;
    int block_ordinal = -1;

    const auto open_block = [&](CodeBlock b, int line) {
        const int ord = static_cast<int>(b);
        if (ord <= block_ordinal) {
            fail(line, "blocks must appear in .pf < .pl < .ex < .ps order");
        }
        const auto here = static_cast<std::uint32_t>(tc.code.size());
        for (int blk = block_ordinal + 1; blk <= ord; ++blk) {
            switch (static_cast<CodeBlock>(blk)) {
                case CodeBlock::kPf: break;
                case CodeBlock::kPl: tc.pl_begin = here; break;
                case CodeBlock::kEx: tc.ex_begin = here; break;
                case CodeBlock::kPs: tc.ps_begin = here; break;
            }
        }
        block_ordinal = ord;
    };

    while (true) {
        const std::string ln = cur.next_line();
        if (ln.empty()) {
            fail(cur.line, "unexpected EOF inside thread '" + tc.name + "'");
        }
        if (ln == "end") {
            break;
        }
        if (ln.rfind("region", 0) == 0) {
            if (block_ordinal >= 0) {
                fail(cur.line, "regions must precede code blocks");
            }
            RegionAnnotation ann;
            std::istringstream is(ln.substr(6));
            std::vector<std::string> rtoks;
            std::string t;
            while (is >> t) {
                rtoks.push_back(t);
            }
            if (!kv(rtoks, "bytes", v)) fail(cur.line, "region needs bytes=");
            ann.bytes = static_cast<std::uint32_t>(parse_int(v, cur.line));
            if (!kv(rtoks, "reg", v)) fail(cur.line, "region needs reg=");
            ann.addr_reg = parse_reg(v, cur.line);
            if (kv(rtoks, "stride", v)) {
                ann.stride = static_cast<std::uint32_t>(parse_int(v, cur.line));
                if (!kv(rtoks, "elem", v)) fail(cur.line, "region needs elem=");
                ann.elem_bytes =
                    static_cast<std::uint32_t>(parse_int(v, cur.line));
            }
            if (rtoks.empty() || rtoks.back() != "{") {
                fail(cur.line, "region header must end with '{'");
            }
            while (true) {
                const std::string body = cur.next_line();
                if (body.empty()) fail(cur.line, "unexpected EOF in region");
                if (body == "}") break;
                Instruction ins = parse_instr(body, cur.line, nullptr, 0);
                ins.block = CodeBlock::kPf;
                ann.addr_code.push_back(ins);
            }
            tc.annotations.push_back(std::move(ann));
            continue;
        }
        if (ln == ".pf") { open_block(CodeBlock::kPf, cur.line); continue; }
        if (ln == ".pl") { open_block(CodeBlock::kPl, cur.line); continue; }
        if (ln == ".ex") { open_block(CodeBlock::kEx, cur.line); continue; }
        if (ln == ".ps") { open_block(CodeBlock::kPs, cur.line); continue; }
        if (ln.back() == ':') {
            const std::string name = ln.substr(0, ln.size() - 1);
            if (!labels.emplace(name, static_cast<std::uint32_t>(tc.code.size()))
                     .second) {
                fail(cur.line, "label '" + name + "' defined twice");
            }
            continue;
        }
        if (block_ordinal < 0) {
            fail(cur.line, "instruction before any block marker");
        }
        Instruction ins =
            parse_instr(ln, cur.line, &fixups, tc.code.size());
        ins.block = static_cast<CodeBlock>(block_ordinal);
        tc.code.push_back(ins);
    }
    // Close unopened trailing blocks exactly like CodeBuilder::finish:
    // every block never opened after the last one starts at end-of-code.
    const auto end = static_cast<std::uint32_t>(tc.code.size());
    for (int blk = block_ordinal + 1; blk <= static_cast<int>(CodeBlock::kPs);
         ++blk) {
        switch (static_cast<CodeBlock>(blk)) {
            case CodeBlock::kPf: break;
            case CodeBlock::kPl: tc.pl_begin = end; break;
            case CodeBlock::kEx: tc.ex_begin = end; break;
            case CodeBlock::kPs: tc.ps_begin = end; break;
        }
    }
    // Resolve labels.
    for (const Fixup& fx : fixups) {
        const auto it = labels.find(fx.label);
        if (it == labels.end()) {
            fail(fx.line, "undefined label '" + fx.label + "'");
        }
        tc.code[fx.instr_index].imm = it->second;
    }
    validate_thread_code(tc);
    return tc;
}

}  // namespace

Program parse_program(std::string_view text) {
    Cursor cur{text};
    Program prog;
    const std::string header = cur.next_line();
    if (header.rfind("program", 0) != 0) {
        fail(cur.line, "file must start with 'program \"name\" entry=<id>'");
    }
    const std::size_t q1 = header.find('"');
    const std::size_t q2 = header.find('"', q1 + 1);
    if (q1 == std::string::npos || q2 == std::string::npos) {
        fail(cur.line, "program header needs a quoted name");
    }
    prog.name = header.substr(q1 + 1, q2 - q1 - 1);
    {
        std::istringstream is(header.substr(q2 + 1));
        std::vector<std::string> toks;
        std::string t;
        while (is >> t) {
            toks.push_back(t);
        }
        std::string v;
        if (!kv(toks, "entry", v)) fail(cur.line, "program needs entry=<id>");
        prog.entry = static_cast<sim::ThreadCodeId>(parse_int(v, cur.line));
    }
    while (true) {
        const std::string ln = cur.next_line();
        if (ln.empty()) {
            break;
        }
        if (ln.rfind("thread", 0) != 0) {
            fail(cur.line, "expected 'thread' section, got '" + ln + "'");
        }
        prog.codes.push_back(parse_thread(cur, ln));
    }
    validate_program(prog);
    return prog;
}

}  // namespace dta::isa
