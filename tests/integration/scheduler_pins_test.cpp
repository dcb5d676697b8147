// The event-driven scheduler's own counts on the paper kernels, pinned.
// For each of paper_pins_test's twelve cases (dta_bench's six ci cases on
// the paper's 1x8 shape and on 4 nodes x 2 SPEs) the WheelStats counters
// must come out exactly as pinned: component visits (pops), later-cycle
// arms (inserts), effective wakes, and cycles with at least one visit.  The 1x8 pops and inserts match
// bench/baseline/BENCH_baseline.json's "host" section.
//
// These counts describe the host-side scheduler, not the machine, so they
// are not results of the paper.  Pinning them shows that a rewrite of the
// scheduler makes as many visits, arms and wakes, on as many active
// cycles, as the scheduler it replaces did.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "ci_cases.hpp"

namespace dta::workloads {
namespace {

struct SchedPin {
    const char* name;  ///< "<kernel>_<variant>_<nodes>x<spes>"
    Kernel kernel;
    bool prefetch;
    std::uint16_t nodes;
    std::uint16_t spes_per_node;
    std::uint64_t pops;
    std::uint64_t inserts;
    std::uint64_t wakes;
    std::uint64_t active_cycles;
};

const SchedPin kPins[] = {
    {"mmul_orig_1x8", Kernel::kMmul, false, 1, 8,
     103'220, 90'016, 43'802, 49'536},
    {"mmul_pf_1x8", Kernel::kMmul, true, 1, 8,
     36'675, 36'221, 1'412, 9'069},
    {"zoom_orig_1x8", Kernel::kZoom, false, 1, 8,
     29'780, 25'909, 12'843, 12'812},
    {"zoom_pf_1x8", Kernel::kZoom, true, 1, 8,
     10'491, 9'666, 1'809, 2'207},
    {"bitcnt_orig_1x8", Kernel::kBitcnt, false, 1, 8,
     656'069, 566'598, 215'076, 302'770},
    {"bitcnt_pf_1x8", Kernel::kBitcnt, true, 1, 8,
     559'889, 499'736, 146'573, 217'577},
    {"mmul_orig_4x2", Kernel::kMmul, false, 4, 2,
     110'773, 96'051, 50'129, 60'598},
    {"mmul_pf_4x2", Kernel::kMmul, true, 4, 2,
     36'787, 36'239, 1'643, 25'925},
    {"zoom_orig_4x2", Kernel::kZoom, false, 4, 2,
     31'472, 27'243, 14'563, 14'810},
    {"zoom_pf_4x2", Kernel::kZoom, true, 4, 2,
     11'397, 11'039, 2'687, 4'838},
    {"bitcnt_orig_4x2", Kernel::kBitcnt, false, 4, 2,
     636'607, 526'341, 210'114, 401'219},
    {"bitcnt_pf_4x2", Kernel::kBitcnt, true, 4, 2,
     543'114, 470'233, 142'072, 360'712},
};

/// gtest names the failing parameter with this instead of a byte dump.
void PrintTo(const SchedPin& pin, std::ostream* os) { *os << pin.name; }

class SchedulerPins : public ::testing::TestWithParam<SchedPin> {};

TEST_P(SchedulerPins, ExactVisitCounts) {
    const SchedPin& pin = GetParam();
    const RunOutcome out =
        run_ci_case(pin.kernel, pin.prefetch, pin.nodes, pin.spes_per_node);
    ASSERT_TRUE(out.correct) << out.detail;
    const sim::WheelStats& w = out.result.wheel;
    ASSERT_TRUE(w.enabled) << "the run loop did not use the scheduler";
    EXPECT_EQ(w.pops, pin.pops);
    EXPECT_EQ(w.inserts, pin.inserts);
    EXPECT_EQ(w.wakes, pin.wakes);
    EXPECT_EQ(w.active_cycles, pin.active_cycles);
}

INSTANTIATE_TEST_SUITE_P(CiCases, SchedulerPins, ::testing::ValuesIn(kPins),
                         [](const ::testing::TestParamInfo<SchedPin>& info) {
                             return std::string(info.param.name);
                         });

}  // namespace
}  // namespace dta::workloads
