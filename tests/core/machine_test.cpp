// Machine-level behaviour: thread forking and synchronisation, scheduler
// distribution, frame lifecycle, error detection.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/machine.hpp"
#include "isa/builder.hpp"
#include "sim/check.hpp"
#include "sim/telemetry.hpp"
#include "test_util.hpp"

namespace dta::core {
namespace {

using isa::CodeBlock;
using isa::r;
using test::tiny_config;

constexpr sim::MemAddr kOut = 0x8000;

/// Program: main forks `n` adder threads; adder i writes (i + 100) to
/// kOut + 4*i.  Exercises FALLOC distribution, frame stores, LOADs.
isa::Program fanout_program(std::uint32_t n) {
    isa::Program prog;
    prog.name = "fanout";

    isa::CodeBuilder w("adder", 1);
    w.block(CodeBlock::kPl).load(r(1), 0);
    w.block(CodeBlock::kEx)
        .addi(r(2), r(1), 100)
        .shli(r(3), r(1), 2)
        .addi(r(3), r(3), kOut)
        .write(r(2), r(3), 0);
    w.block(CodeBlock::kPs).ffree().stop();
    const auto worker = prog.add(std::move(w).build());

    isa::CodeBuilder m("main", 0);
    m.block(CodeBlock::kPs).movi(r(1), 0).movi(r(2), n);
    auto loop = m.new_label();
    auto done = m.new_label();
    m.bind(loop)
        .bge(r(1), r(2), done)
        .falloc(r(3), worker)
        .store(r(1), r(3), 0)
        .addi(r(1), r(1), 1)
        .jmp(loop);
    m.bind(done).ffree().stop();
    prog.entry = prog.add(std::move(m).build());
    return prog;
}

TEST(Machine, FanOutComputesAllResults) {
    core::Machine m(tiny_config(4), fanout_program(16));
    m.launch({});
    const auto res = m.run();
    for (std::uint32_t i = 0; i < 16; ++i) {
        EXPECT_EQ(m.memory().read_u32(kOut + 4 * i), i + 100) << "adder " << i;
    }
    // 16 adders + main.
    std::uint64_t threads = 0;
    for (const auto& pe : res.pes) {
        threads += pe.threads_executed;
    }
    EXPECT_EQ(threads, 17u);
}

TEST(Machine, SchedulerDistributesAcrossPes) {
    core::Machine m(tiny_config(4), fanout_program(16));
    m.launch({});
    const auto res = m.run();
    // Round-robin placement: every PE must have executed several threads.
    for (const auto& pe : res.pes) {
        EXPECT_GE(pe.threads_executed, 2u);
    }
}

TEST(Machine, AllFramesFreedAtEnd) {
    core::Machine m(tiny_config(2), fanout_program(8));
    m.launch({});
    (void)m.run();
    for (std::uint32_t p = 0; p < m.num_pes(); ++p) {
        EXPECT_EQ(m.pe(p).lse().live_frames(), 0u);
        EXPECT_EQ(m.pe(p).lse().stats().frames_allocated,
                  m.pe(p).lse().stats().frames_freed);
    }
}

TEST(Machine, EntryArgsReachTheEntryThread) {
    isa::Program prog;
    isa::CodeBuilder b("echo", 2);
    b.block(CodeBlock::kPl).load(r(1), 0).load(r(2), 1);
    b.block(CodeBlock::kEx)
        .movi(r(3), kOut)
        .write(r(1), r(3), 0)
        .write(r(2), r(3), 4);
    b.block(CodeBlock::kPs).ffree().stop();
    prog.entry = prog.add(std::move(b).build());

    core::Machine m(tiny_config(1), prog);
    const std::vector<std::uint64_t> args{321, 654};
    m.launch(args);
    (void)m.run();
    EXPECT_EQ(m.memory().read_u32(kOut), 321u);
    EXPECT_EQ(m.memory().read_u32(kOut + 4), 654u);
}

TEST(Machine, ProducerConsumerThroughFrames) {
    // producer -> consumer value passing via STORE, plus handle passing via
    // SELF so the consumer's result returns to a collector.
    isa::Program prog;
    isa::CodeBuilder c("consumer", 2);
    c.block(CodeBlock::kPl).load(r(1), 0).load(r(2), 1);  // value, collector
    c.block(CodeBlock::kEx).muli(r(3), r(1), 2);
    c.block(CodeBlock::kPs).store(r(3), r(2), 0).ffree().stop();
    const auto consumer = prog.add(std::move(c).build());

    isa::CodeBuilder k("collector", 1);
    k.block(CodeBlock::kPl).load(r(1), 0);
    k.block(CodeBlock::kEx).movi(r(2), kOut).write(r(1), r(2), 0);
    k.block(CodeBlock::kPs).ffree().stop();
    const auto collector = prog.add(std::move(k).build());

    isa::CodeBuilder p("producer", 0);
    p.block(CodeBlock::kPs)
        .falloc(r(1), collector)
        .falloc(r(2), consumer)
        .movi(r(3), 21)
        .store(r(3), r(2), 0)
        .store(r(1), r(2), 1)
        .ffree()
        .stop();
    prog.entry = prog.add(std::move(p).build());

    core::Machine m(tiny_config(2), prog);
    m.launch({});
    (void)m.run();
    EXPECT_EQ(m.memory().read_u32(kOut), 42u);
}

TEST(Machine, FallocNOverridesSc) {
    // A collector with declared num_inputs=1 is allocated with SC=3 via
    // FALLOCN and must wait for all three stores.
    isa::Program prog;
    isa::CodeBuilder k("sum3", 3);
    k.block(CodeBlock::kPl).load(r(1), 0).load(r(2), 1).load(r(3), 2);
    k.block(CodeBlock::kEx)
        .add(r(4), r(1), r(2))
        .add(r(4), r(4), r(3))
        .movi(r(5), kOut)
        .write(r(4), r(5), 0);
    k.block(CodeBlock::kPs).ffree().stop();
    const auto sum3 = prog.add(std::move(k).build());

    isa::CodeBuilder p("main", 0);
    p.block(CodeBlock::kEx).movi(r(6), 3);
    p.block(CodeBlock::kPs)
        .fallocn(r(1), r(6), sum3)
        .movi(r(2), 10)
        .store(r(2), r(1), 0)
        .movi(r(3), 20)
        .store(r(3), r(1), 1)
        .movi(r(4), 30)
        .store(r(4), r(1), 2)
        .ffree()
        .stop();
    prog.entry = prog.add(std::move(p).build());

    core::Machine m(tiny_config(2), prog);
    m.launch({});
    (void)m.run();
    EXPECT_EQ(m.memory().read_u32(kOut), 60u);
}

TEST(Machine, IndexedFrameStoreAndLoad) {
    isa::Program prog;
    isa::CodeBuilder k("gather4", 4);
    k.block(CodeBlock::kPl)
        .movi(r(9), 2)
        .loadx(r(1), r(9), 0)   // frame[2]
        .loadx(r(2), r(9), 1);  // frame[3]
    k.block(CodeBlock::kEx)
        .add(r(3), r(1), r(2))
        .movi(r(4), kOut)
        .write(r(3), r(4), 0);
    k.block(CodeBlock::kPs).ffree().stop();
    const auto gather = prog.add(std::move(k).build());

    isa::CodeBuilder p("main", 0);
    p.block(CodeBlock::kEx).movi(r(6), 4);
    p.block(CodeBlock::kPs)
        .fallocn(r(1), r(6), gather)
        .movi(r(2), 5);
    // storex with a register index: words 0..3 get 5, 6, 7, 8.
    for (int i = 0; i < 4; ++i) {
        p.movi(r(3), i).storex(r(2), r(1), r(3), 0).addi(r(2), r(2), 1);
    }
    p.ffree().stop();
    prog.entry = prog.add(std::move(p).build());

    core::Machine m(tiny_config(1), prog);
    m.launch({});
    (void)m.run();
    EXPECT_EQ(m.memory().read_u32(kOut), 7u + 8u);
}

TEST(Machine, RunBeforeLaunchRejected) {
    core::Machine m(tiny_config(1), fanout_program(1));
    EXPECT_THROW((void)m.run(), sim::SimError);
}

TEST(Machine, DoubleLaunchRejected) {
    core::Machine m(tiny_config(1), fanout_program(1));
    m.launch({});
    EXPECT_THROW(m.launch({}), sim::SimError);
}

TEST(Machine, HostThreadsOtherThanOneRejected) {
    // A machine always runs on one host thread; the retired knob fails
    // with one line that names it.
    auto cfg = tiny_config(1);
    cfg.nodes = 4;
    cfg.host_threads = 4;
    try {
        const core::Machine m(cfg, fanout_program(1));
        FAIL() << "expected sim::SimError";
    } catch (const sim::SimError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("host_threads"), std::string::npos) << msg;
        EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    }
}

TEST(Machine, OverStoringFrameFaults) {
    isa::Program prog;
    isa::CodeBuilder w("leaf", 1);
    w.block(CodeBlock::kPl).load(r(1), 0);
    w.block(CodeBlock::kPs).ffree().stop();
    const auto leaf = prog.add(std::move(w).build());
    isa::CodeBuilder p("main", 0);
    p.block(CodeBlock::kPs)
        .falloc(r(1), leaf)
        .movi(r(2), 1)
        .store(r(2), r(1), 0)
        .store(r(2), r(1), 1)  // second store: SC is already 0
        .ffree()
        .stop();
    prog.entry = prog.add(std::move(p).build());
    core::Machine m(tiny_config(1), prog);
    m.launch({});
    EXPECT_THROW((void)m.run(), sim::SimError);
}

TEST(Machine, DeadlockDetectedWhenFramesExhausted) {
    // main FALLOCs more children than frames exist, and the children all
    // wait on stores main will never send: the no-progress detector fires.
    isa::Program prog;
    isa::CodeBuilder w("waiter", 1);
    w.block(CodeBlock::kPl).load(r(1), 0);
    w.block(CodeBlock::kPs).ffree().stop();
    const auto waiter = prog.add(std::move(w).build());
    isa::CodeBuilder p("main", 0);
    p.block(CodeBlock::kPs).movi(r(2), 0);
    for (int i = 0; i < 6; ++i) {
        p.falloc(r(3), waiter);  // handles overwritten; nothing ever stored
    }
    p.ffree().stop();
    prog.entry = prog.add(std::move(p).build());

    auto cfg = tiny_config(1);
    cfg.lse = sched::LseConfig::with(4, 512);
    cfg.no_progress_limit = 20'000;
    core::Machine m(cfg, prog);
    m.launch({});
    try {
        (void)m.run();
        FAIL() << "expected deadlock";
    } catch (const sim::SimError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("deadlock"), std::string::npos);
        // The default scheduler names the cycle whose tick left every
        // horizon idle, and the components still holding work (the
        // source location follows the text).
        const std::string want =
            "simulation error: deadlock at cycle 71: every component is "
            "idle forever yet the machine is not quiescent (stuck: dse0, "
            "pe0; 1 FALLOCs parked at DSEs; the program's live-thread peak "
            "likely exceeds the frame supply) (";
        EXPECT_EQ(msg.substr(0, want.size()), want) << msg;
    }
}

TEST(Machine, RunEndsAtStopAfterLateWorkPastFfree) {
    // The entry thread frees its frame and then computes long enough for
    // the free to reach the DSE before STOP, so the machine is quiescent at
    // STOP's cycle with the PE's next dispatch request not yet posted.  The
    // run ends there under both policies: the idle PE posts no request and
    // is charged no idle cycle (cycle count as before the run loop ended on
    // the armed count).
    isa::Program prog;
    isa::CodeBuilder b("main", 0);
    b.block(CodeBlock::kPs).ffree();
    for (int i = 0; i < 20; ++i) {
        b.addi(r(1), r(1), 1);
    }
    b.stop();
    prog.entry = prog.add(std::move(b).build());
    for (const bool use_wheel : {true, false}) {
        auto cfg = tiny_config(1);
        cfg.use_wheel = use_wheel;
        const auto out = test::run_program(prog, cfg);
        EXPECT_EQ(out.result.cycles, 29u) << "use_wheel " << use_wheel;
        EXPECT_EQ(out.result.pes[0].breakdown[CycleBucket::kIdle], 0u)
            << "use_wheel " << use_wheel;
    }
}

TEST(Machine, TelemetryWatchdogFlagsInjectedStall) {
    // Same wedged program as above, but with the telemetry watchdog armed
    // at a cadence well inside the no-progress limit: the watchdog must
    // emit exactly one diagnostic naming the stuck components before the
    // deadlock detector aborts the run.
    isa::Program prog;
    isa::CodeBuilder w("waiter", 1);
    w.block(CodeBlock::kPl).load(r(1), 0);
    w.block(CodeBlock::kPs).ffree().stop();
    const auto waiter = prog.add(std::move(w).build());
    isa::CodeBuilder p("main", 0);
    p.block(CodeBlock::kPs).movi(r(2), 0);
    for (int i = 0; i < 6; ++i) {
        p.falloc(r(3), waiter);
    }
    p.ffree().stop();
    prog.entry = prog.add(std::move(p).build());

    auto cfg = tiny_config(1);
    cfg.lse = sched::LseConfig::with(4, 512);
    cfg.no_progress_limit = 20'000;
    // The default scheduler would flag this wedge as idle-forever on the
    // cycle its horizons all go idle; use the per-cycle reference so the
    // stall persists long enough for the sampling watchdog to see it — the
    // scenario the watchdog exists for (stalls no horizon can prove).
    cfg.use_wheel = false;
    cfg.telemetry.enabled = true;
    cfg.telemetry.interval = 256;
    cfg.telemetry.watchdog_samples = 4;
    core::Machine m(cfg, prog);
    std::FILE* diag = std::tmpfile();
    ASSERT_NE(diag, nullptr);
    m.set_telemetry_diag(diag);
    m.launch({});
    try {
        (void)m.run();
        FAIL() << "expected deadlock";
    } catch (const sim::SimError& e) {
        EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
    }
    ASSERT_NE(m.telemetry(), nullptr);
    EXPECT_TRUE(m.telemetry()->stalled());
    const sim::TelemetryResult tr = m.telemetry()->result();
    EXPECT_TRUE(tr.stalled);
    EXPECT_EQ(tr.stall.samples, 4u);
    EXPECT_FALSE(tr.stall.components.empty())
        << "diagnostic must name the stuck components";

    std::rewind(diag);
    std::string text;
    char buf[256];
    while (std::fgets(buf, sizeof buf, diag) != nullptr) {
        text += buf;
    }
    std::fclose(diag);
    std::size_t hits = 0;
    for (std::size_t at = text.find("telemetry watchdog:");
         at != std::string::npos;
         at = text.find("telemetry watchdog:", at + 1)) {
        ++hits;
    }
    EXPECT_EQ(hits, 1u) << "exactly one diagnostic, got:\n" << text;
    EXPECT_NE(text.find("stuck:"), std::string::npos) << text;
}

TEST(Machine, StatsArePopulated) {
    core::Machine m(tiny_config(2), fanout_program(8));
    m.launch({});
    const auto res = m.run();
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.noc.packets_injected, 0u);
    EXPECT_EQ(res.noc.packets_injected, res.noc.packets_delivered);
    EXPECT_EQ(res.mem_writes, 8u);       // one WRITE per adder
    EXPECT_GT(res.dse_requests, 0u);
    EXPECT_GT(res.pipeline_usage(), 0.0);
    EXPECT_LE(res.slot_utilisation(), 1.0);
}

}  // namespace
}  // namespace dta::core
