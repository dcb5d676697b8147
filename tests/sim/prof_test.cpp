// Host-time profiler units: accumulation, exclusive scope attribution,
// orphan-child bookkeeping, snapshots, and folding a buffer into a
// HostProfile.
#include "sim/prof.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dta::sim {
namespace {

ProfPhase tick() { return ProfPhase::kTick; }

TEST(ProfBuffer, AddAccumulatesNsAndCalls) {
    ProfBuffer b;
    b.reset(2);
    b.add(0, ProfPhase::kAudit, 100);
    b.add(1, tick(), 40);
    b.add(1, tick(), 60, 2);
    EXPECT_EQ(b.rows().size(), 3u);  // loop row + 2 components
    const auto& acc =
        b.rows()[1][static_cast<std::size_t>(ProfPhase::kTick)];
    EXPECT_EQ(acc.ns, 100u);
    EXPECT_EQ(acc.calls, 3u);
    EXPECT_EQ(b.phase_ns(tick()), 100u);
    EXPECT_EQ(b.phase_ns(ProfPhase::kAudit), 100u);
    EXPECT_EQ(b.total_ns(), 200u);
}

TEST(ProfScope, NullBufferIsANoop) {
    ProfScope s(nullptr, 0, tick());
    // Nothing to assert beyond "does not crash": the null path must be
    // safe because every instrumentation site runs it when profiling is
    // off.
}

TEST(ProfScope, RecordsTimeAndCall) {
    ProfBuffer b;
    b.reset(1);
    {
        ProfScope s(&b, 1, tick());
        // Burn a few clock reads so the duration is visibly non-zero.
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 100; ++i) {
            sink = sink + prof_now_ns();
        }
    }
    const auto& acc = b.rows()[1][static_cast<std::size_t>(tick())];
    EXPECT_EQ(acc.calls, 1u);
    EXPECT_GT(acc.ns, 0u);
}

TEST(ProfScope, NestedChildTimeIsExcludedFromParent) {
    ProfBuffer b;
    b.reset(2);
    std::uint64_t child_ns = 0;
    {
        ProfScope outer(&b, ProfBuffer::kLoopSlot, ProfPhase::kSample);
        {
            ProfScope inner(&b, 1, tick());
            volatile std::uint64_t sink = 0;
            for (int i = 0; i < 1000; ++i) {
                sink = sink + prof_now_ns();
            }
        }
        child_ns = b.rows()[1][static_cast<std::size_t>(tick())].ns;
    }
    const std::uint64_t outer_self =
        b.rows()[0][static_cast<std::size_t>(ProfPhase::kSample)].ns;
    EXPECT_GT(child_ns, 0u);
    // Exclusive attribution: the parent's self time does not re-count the
    // child's duration, so the sum of the two is the true elapsed span —
    // the parent's self time must be (much) smaller than the child's.
    EXPECT_LT(outer_self, child_ns);
    // The child was claimed by its parent, not the orphan bucket; the
    // outer scope itself is top-level, so ITS full duration (covering the
    // child) lands there for an enclosing manual timer to subtract.
    EXPECT_GE(b.take_orphan_child_ns(), child_ns);
}

TEST(ProfScope, TopLevelScopeBecomesOrphanChildTime) {
    ProfBuffer b;
    b.reset(1);
    {
        ProfScope lone(&b, 1, ProfPhase::kWheelInsert);
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 100; ++i) {
            sink = sink + prof_now_ns();
        }
    }
    // A scope with no parent reports its full duration as orphan child
    // time, which the manual per-component tick timer subtracts.
    const std::uint64_t orphan = b.take_orphan_child_ns();
    EXPECT_GT(orphan, 0u);
    EXPECT_GE(orphan,
              b.rows()[1][static_cast<std::size_t>(
                  ProfPhase::kWheelInsert)].ns);
    EXPECT_EQ(b.take_orphan_child_ns(), 0u);  // take() drains
}

TEST(ProfBuffer, SnapshotsAreCumulative) {
    ProfBuffer b;
    b.reset(1);
    b.add(1, tick(), 100);
    b.snapshot(10);
    b.add(1, tick(), 50);
    b.add(0, ProfPhase::kWheelPop, 30);
    b.snapshot(20);
    ASSERT_EQ(b.snapshots().size(), 2u);
    EXPECT_EQ(b.snapshots()[0].cycle, 10u);
    EXPECT_EQ(b.snapshots()[0].ns[static_cast<std::size_t>(tick())], 100u);
    EXPECT_EQ(b.snapshots()[1].ns[static_cast<std::size_t>(tick())], 150u);
    EXPECT_EQ(b.snapshots()[1].ns[static_cast<std::size_t>(
                  ProfPhase::kWheelPop)],
              30u);
}

TEST(PhaseNames, AreStableAndDistinct) {
    std::vector<std::string> seen;
    for (std::size_t p = 0; p < kNumProfPhases; ++p) {
        const std::string name = prof_phase_name(static_cast<ProfPhase>(p));
        EXPECT_FALSE(name.empty());
        for (const std::string& other : seen) {
            EXPECT_NE(name, other);
        }
        seen.push_back(name);
    }
    EXPECT_EQ(std::string(prof_phase_name(ProfPhase::kTick)), "tick");
    EXPECT_EQ(std::string(prof_phase_name(ProfPhase::kWheelPop)),
              "wheel_pop");
}

TEST(Merge, FoldsRowsSkipsZerosAndComputesCoverage) {
    ProfBuffer b;
    b.reset(2);
    b.add(ProfBuffer::kLoopSlot, ProfPhase::kNextActivity, 200, 4);
    b.add(1, tick(), 600, 10);
    // Component 2 (row 2) stays all-zero: it must not produce entries.
    b.set_wall_ns(1000);
    b.snapshot(64);

    HostProfile out;
    merge_prof_buffer(out, b, {"pe0", "pe1"});
    out.enabled = true;

    EXPECT_EQ(out.wall_ns, 1000u);
    EXPECT_EQ(out.phase_ns[static_cast<std::size_t>(tick())], 600u);
    ASSERT_EQ(out.samples.size(), 1u);
    EXPECT_DOUBLE_EQ(out.coverage(), 0.8);  // (200 + 600) / 1000

    ASSERT_EQ(out.entries.size(), 2u);
    // Loop phases report component "-".
    bool saw_loop_row = false;
    bool saw_pe0 = false;
    for (const HostProfileEntry& e : out.entries) {
        if (e.component == "-") {
            saw_loop_row = true;
            EXPECT_EQ(e.phase, ProfPhase::kNextActivity);
            EXPECT_EQ(e.ns, 200u);
            EXPECT_EQ(e.calls, 4u);
        }
        if (e.component == "pe0") {
            saw_pe0 = true;
            EXPECT_EQ(e.ns, 600u);
        }
        EXPECT_NE(e.component, "pe1");  // zero row skipped
    }
    EXPECT_TRUE(saw_loop_row);
    EXPECT_TRUE(saw_pe0);
    EXPECT_EQ(out.total_ns(), 800u);
    EXPECT_EQ(out.total_wall_ns(), 1000u);

    // The self-time table names the hot entry first and reports coverage.
    const std::string table = out.table();
    EXPECT_NE(table.find("pe0"), std::string::npos);
    EXPECT_NE(table.find("tick"), std::string::npos);
    EXPECT_NE(table.find("coverage"), std::string::npos);
    EXPECT_LT(table.find("pe0"), table.find("next_activity"));
}

}  // namespace
}  // namespace dta::sim
