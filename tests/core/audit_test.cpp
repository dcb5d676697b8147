// Machine-wide invariant auditor: clean programs stay clean at every audit
// cadence and shard count, audits never change results, injected violations
// surface as sim::SimError naming the component, invariant, cycle (and
// thread uid when given), and the event-tracing wire caps are enforced at
// configuration time, before any machine state is built.
#include <gtest/gtest.h>

#include <string>

#include "core/machine.hpp"
#include "sim/check.hpp"
#include "test_util.hpp"
#include "workloads/dataflow_gen.hpp"

namespace dta::core {
namespace {

workloads::DataflowGen make_gen(std::uint64_t seed,
                                std::uint32_t max_threads = 24) {
    workloads::DataflowGenParams p;
    p.seed = seed;
    p.max_threads = max_threads;
    return workloads::DataflowGen(p);
}

RunResult run_checked(const workloads::DataflowGen& gen, MachineConfig cfg) {
    Machine m(cfg, gen.program());
    gen.init_memory(m.memory());
    m.launch(gen.entry_args());
    RunResult res = m.run();
    std::string why;
    EXPECT_TRUE(gen.check(m.memory(), &why)) << why;
    return res;
}

TEST(Audit, CleanRunEveryCycle) {
    const auto gen = make_gen(11);
    auto cfg = test::tiny_config(2);
    cfg.audit.enabled = true;
    cfg.audit.interval = 1;
    (void)run_checked(gen, cfg);
}

TEST(Audit, CleanRunSampledInterval) {
    const auto gen = make_gen(12);
    auto cfg = test::tiny_config(2);
    cfg.audit.enabled = true;
    cfg.audit.interval = 0;  // auto: 1 in debug builds, 64 in release
    (void)run_checked(gen, cfg);
}

TEST(Audit, CleanRunVirtualFramesAndPrefetch) {
    workloads::DataflowGenParams p;
    p.seed = 13;
    p.max_threads = 40;
    p.table_reads = true;
    const workloads::DataflowGen gen(p);
    auto cfg = test::tiny_config(2);
    cfg.lse = sched::LseConfig::with(6, 1024);
    cfg.lse.virtual_frames = true;
    cfg.audit.enabled = true;
    cfg.audit.interval = 1;
    Machine m(cfg, gen.prefetch_program(1024));
    gen.init_memory(m.memory());
    m.launch(gen.entry_args());
    (void)m.run();
    std::string why;
    EXPECT_TRUE(gen.check(m.memory(), &why)) << why;
}

TEST(Audit, CleanRunMultiNode) {
    const auto gen = make_gen(14);
    auto cfg = test::tiny_config(2);
    cfg.nodes = 3;
    cfg.audit.enabled = true;
    cfg.audit.interval = 1;
    (void)run_checked(gen, cfg);
}

TEST(Audit, AuditsDoNotChangeResults) {
    const auto gen = make_gen(15);
    auto cfg = test::tiny_config(2);
    const RunResult plain = run_checked(gen, cfg);
    cfg.audit.enabled = true;
    cfg.audit.interval = 1;
    const RunResult audited = run_checked(gen, cfg);
    EXPECT_EQ(plain.cycles, audited.cycles);
    EXPECT_EQ(plain.total_instrs().total(), audited.total_instrs().total());
}

TEST(Audit, ChecksRegisteredOnlyWhenEnabled) {
    const auto gen = make_gen(16, 4);
    auto cfg = test::tiny_config(2);
    Machine off(cfg, gen.program());
    EXPECT_TRUE(off.auditor().empty());
    cfg.audit.enabled = true;
    Machine on(cfg, gen.program());
    EXPECT_GT(on.auditor().check_count(), 0u);
    EXPECT_GT(on.auditor().final_check_count(), 0u);
}

TEST(Audit, InjectedViolationNamesComponentInvariantCycle) {
    const auto gen = make_gen(17);
    auto cfg = test::tiny_config(2);
    cfg.audit.enabled = true;
    cfg.audit.interval = 1;
    Machine m(cfg, gen.program());
    // Fails on the very first sweep (cycle 0, before any fast-forward
    // span), so the reported cycle is deterministic.
    m.auditor().add("custom", [](const sim::AuditCtx& ctx) {
        ctx.fail("boom", "deliberately failing");
    });
    gen.init_memory(m.memory());
    m.launch(gen.entry_args());
    try {
        (void)m.run();
        FAIL() << "expected sim::SimError";
    } catch (const sim::SimError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("audit violation"), std::string::npos) << msg;
        EXPECT_NE(msg.find("component=custom"), std::string::npos) << msg;
        EXPECT_NE(msg.find("invariant=boom"), std::string::npos) << msg;
        EXPECT_NE(msg.find("cycle=0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("deliberately failing"), std::string::npos) << msg;
    }
}

TEST(Audit, InjectedViolationCarriesThreadUid) {
    const auto gen = make_gen(18, 4);
    auto cfg = test::tiny_config(2);
    cfg.audit.enabled = true;
    cfg.audit.interval = 1;
    Machine m(cfg, gen.program());
    m.auditor().add("custom", [](const sim::AuditCtx& ctx) {
        ctx.fail("uid-carrier", "who did it", 0xabcdeULL);
    });
    gen.init_memory(m.memory());
    m.launch(gen.entry_args());
    try {
        (void)m.run();
        FAIL() << "expected sim::SimError";
    } catch (const sim::SimError& e) {
        EXPECT_NE(std::string(e.what()).find("thread=0xabcde"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Audit, InjectedViolationSurfacesFromMultiNodeRun) {
    // A failing check on a machine with inter-node links must still
    // propagate out of run().
    const auto gen = make_gen(19);
    auto cfg = test::tiny_config(2);
    cfg.nodes = 2;
    cfg.audit.enabled = true;
    Machine m(cfg, gen.program());
    m.auditor().add("custom", [](const sim::AuditCtx& ctx) {
        ctx.fail("post-join", "fails in the final sweep");
    });
    gen.init_memory(m.memory());
    m.launch(gen.entry_args());
    EXPECT_THROW((void)m.run(), sim::SimError);
}

TEST(Audit, EventWireCapEnforcedBeforeConstruction) {
    // 40000 nodes x 2 SPEs = 80000 PEs > the 16-bit uid packing cap; with
    // event collection on, the Machine constructor must refuse at config
    // validation time instead of building (and then corrupting) the wires.
    const auto gen = make_gen(20, 2);
    auto cfg = test::tiny_config(2);
    cfg.nodes = 40000;
    cfg.collect_events = true;
    try {
        Machine m(cfg, gen.program());
        FAIL() << "expected sim::SimError";
    } catch (const sim::SimError& e) {
        EXPECT_NE(std::string(e.what()).find("65535"), std::string::npos)
            << e.what();
    }
}

}  // namespace
}  // namespace dta::core
