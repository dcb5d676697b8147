// Unit tests for the DTA block-discipline validator.
#include "isa/validate.hpp"

#include <gtest/gtest.h>

#include "isa/builder.hpp"
#include "sim/check.hpp"

namespace dta::isa {
namespace {

ThreadCode minimal_ok() {
    CodeBuilder b("ok", 1);
    b.block(CodeBlock::kPl).load(r(1), 0);
    b.block(CodeBlock::kEx).add(r(2), r(1), r(1));
    b.block(CodeBlock::kPs).ffree().stop();
    return std::move(b).build_unchecked();
}

TEST(Validate, AcceptsWellFormedCode) {
    EXPECT_NO_THROW(validate_thread_code(minimal_ok()));
}

TEST(Validate, RejectsEmptyCode) {
    ThreadCode tc;
    tc.name = "empty";
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, RejectsMissingStop) {
    CodeBuilder b("nostop", 0);
    b.block(CodeBlock::kEx).nop();
    ThreadCode tc = std::move(b).build_unchecked();
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, RejectsLoadInEx) {
    CodeBuilder b("t", 1);
    b.block(CodeBlock::kEx);
    // Hand-craft: builder would tag the block, so force the opcode in.
    Instruction ins;
    ins.op = Opcode::kNop;
    b.nop();
    b.block(CodeBlock::kPs).stop();
    ThreadCode tc = std::move(b).build_unchecked();
    tc.code[0].op = Opcode::kLoad;  // LOAD in EX: illegal
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, RejectsStoreOutsidePs) {
    CodeBuilder b("t", 0);
    b.block(CodeBlock::kEx).nop();
    b.block(CodeBlock::kPs).stop();
    ThreadCode tc = std::move(b).build_unchecked();
    tc.code[0].op = Opcode::kStore;
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, RejectsReadOutsideEx) {
    CodeBuilder b("t", 0);
    b.block(CodeBlock::kPl).nop();
    b.block(CodeBlock::kPs).stop();
    ThreadCode tc = std::move(b).build_unchecked();
    tc.code[0].op = Opcode::kRead;
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, RejectsDmaOutsidePf) {
    CodeBuilder b("t", 0);
    b.block(CodeBlock::kEx).nop();
    b.block(CodeBlock::kPs).stop();
    ThreadCode tc = std::move(b).build_unchecked();
    tc.code[0].op = Opcode::kDmaWait;
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, RejectsDmaGetWithoutWait) {
    CodeBuilder b("t", 0);
    b.block(CodeBlock::kPf).movi(r(1), 0);
    DmaArgs args;
    args.region = 0;
    args.bytes = 16;
    b.dmaget(r(1), args);
    // No dmawait.
    b.block(CodeBlock::kPs).stop();
    ThreadCode tc = std::move(b).build_unchecked();
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, RejectsDmaWaitNotLastInPf) {
    CodeBuilder b("t", 0);
    b.block(CodeBlock::kPf).movi(r(1), 0);
    DmaArgs args;
    args.region = 0;
    args.bytes = 16;
    b.dmaget(r(1), args).dmawait().nop();
    b.block(CodeBlock::kPs).stop();
    ThreadCode tc = std::move(b).build_unchecked();
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, RejectsStridedDmaWithBadShape) {
    CodeBuilder b("t", 0);
    b.block(CodeBlock::kPf).movi(r(1), 0);
    DmaArgs args;
    args.region = 0;
    args.bytes = 100;
    args.stride = 16;
    args.elem_bytes = 0;  // inconsistent
    Instruction get;
    get.op = Opcode::kDmaGet;
    get.ra = 1;
    get.region = 0;
    get.dma = args;
    b.dmawait();
    b.block(CodeBlock::kPs).stop();
    ThreadCode tc = std::move(b).build_unchecked();
    tc.code.insert(tc.code.begin() + 1, get);
    tc.code[1].block = CodeBlock::kPf;
    tc.pl_begin += 1;
    tc.ex_begin += 1;
    tc.ps_begin += 1;
    // DMAWAIT index shifts; rebuild boundaries so only the DMA shape fails.
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, RejectsStopNotLast) {
    CodeBuilder b("t", 0);
    b.block(CodeBlock::kPs).stop();
    ThreadCode tc = std::move(b).build_unchecked();
    Instruction nop;
    nop.op = Opcode::kNop;
    nop.block = CodeBlock::kPs;
    tc.code.push_back(nop);
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, RejectsBranchEscapingItsBlock) {
    ThreadCode tc = minimal_ok();
    // Make the EX add a branch aimed at the PL block.
    tc.code[1].op = Opcode::kJmp;
    tc.code[1].imm = 0;
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, AllowsBranchToBlockEndBoundary) {
    // Loop-exit branch targeting the first instruction after the block is
    // the natural fall-through idiom.
    CodeBuilder b("t", 0);
    b.block(CodeBlock::kEx);
    auto out = b.new_label();
    b.jmp(out);
    b.bind(out);
    b.block(CodeBlock::kPs).ffree().stop();
    EXPECT_NO_THROW((void)std::move(b).build());
}

TEST(Validate, RejectsRegisterOutOfRange) {
    ThreadCode tc = minimal_ok();
    tc.code[1].ra = 32;
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, RejectsReadAnnotationOutOfRange) {
    CodeBuilder b("t", 0);
    b.block(CodeBlock::kEx).read(r(1), r(2), 0, /*region=*/3);
    b.block(CodeBlock::kPs).stop();
    ThreadCode tc = std::move(b).build_unchecked();
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);  // no annotations
}

TEST(Validate, RejectsAnnotationWithBranchInAddrCode) {
    CodeBuilder b("t", 0);
    RegionAnnotation ann;
    ann.bytes = 4;
    Instruction jmp;
    jmp.op = Opcode::kJmp;
    ann.addr_code.push_back(jmp);
    b.annotate(ann);
    b.block(CodeBlock::kEx).read(r(1), r(2), 0, 0);
    b.block(CodeBlock::kPs).stop();
    ThreadCode tc = std::move(b).build_unchecked();
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, RejectsOpcodeOutOfRange) {
    // op_info() is an unchecked table index, so the validator must reject a
    // stray opcode before any check reads OpInfo — with one clean line.
    for (const std::size_t raw : {op_count(), std::size_t{0xff}}) {
        Program prog;
        prog.name = "p";
        prog.codes.push_back(minimal_ok());
        prog.codes[0].code[1].op = static_cast<Opcode>(raw);
        try {
            validate_program(prog);
            ADD_FAILURE() << "opcode " << raw << " accepted";
        } catch (const sim::SimError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("opcode " + std::to_string(raw) +
                                " out of range"),
                      std::string::npos)
                << what;
            EXPECT_EQ(what.find('\n'), std::string::npos) << what;
        }
    }
    // The same holds inside an annotation's address code.
    ThreadCode tc = minimal_ok();
    RegionAnnotation ann;
    ann.bytes = 4;
    Instruction bad;
    bad.op = static_cast<Opcode>(op_count());
    ann.addr_code.push_back(bad);
    tc.annotations.push_back(ann);
    EXPECT_THROW(validate_thread_code(tc), sim::SimError);
}

TEST(Validate, ProgramRejectsBadEntry) {
    Program prog;
    prog.name = "p";
    prog.codes.push_back(minimal_ok());
    prog.entry = 3;
    EXPECT_THROW(validate_program(prog), sim::SimError);
}

TEST(Validate, ProgramRejectsFallocToUnknownCode) {
    Program prog;
    prog.name = "p";
    CodeBuilder b("forker", 0);
    b.block(CodeBlock::kPs).falloc(r(1), 42).stop();
    prog.add(std::move(b).build_unchecked());
    prog.entry = 0;
    EXPECT_THROW(validate_program(prog), sim::SimError);
}

TEST(Validate, ProgramAcceptsSelfReference) {
    Program prog;
    prog.name = "p";
    CodeBuilder b("self", 1);
    b.block(CodeBlock::kPs).falloc(r(1), 0).ffree().stop();
    prog.add(std::move(b).build_unchecked());
    prog.entry = 0;
    EXPECT_NO_THROW(validate_program(prog));
}

}  // namespace
}  // namespace dta::isa
