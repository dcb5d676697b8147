// Exact results of the paper kernels, pinned.  Each of dta_bench's six ci
// cases (mmul, zoom and bitcnt, original and prefetch variants, with
// build_registry's parameters) must reproduce its simulated cycle count
// and the cycle total of every breakdown bucket exactly.  Every case runs
// on the paper's shape (one node of 8 SPEs; the cycles match
// bench/baseline/BENCH_baseline.json) and again on a 4-node x 2-SPE
// machine, which exercises the inter-node ring links and routers.  The
// LAT1 rows rerun the paper shape on Section 4.3's perfect-cache machine
// (memory latency, bank busy and hop latency all 1), the runs with the
// shortest horizons.
//
// A change to the simulator that moves any of these numbers changes the
// paper's results; update a row only together with EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ostream>
#include <string>

#include "ci_cases.hpp"

namespace dta::workloads {
namespace {

using Buckets = std::array<std::uint64_t, core::kNumBuckets>;

struct Pin {
    const char* name;  ///< "<kernel>_<variant>_<nodes>x<spes>"
    Kernel kernel;
    bool prefetch;
    std::uint16_t nodes;
    std::uint16_t spes_per_node;
    std::uint64_t cycles;
    /// Working, Idle, MemoryStalls, LSStalls, LSEStalls, Prefetching,
    /// PipelineStalls (core::CycleBucket order), summed over every SPE.
    Buckets buckets;
    /// Section 4.3's perfect-cache machine (the "_lat1" rows).
    bool perfect_cache = false;
};

const Pin kPins[] = {
    {"mmul_orig_1x8", Kernel::kMmul, false, 1, 8, 91513,
     {25223, 5270, 671764, 16, 478, 0, 29353}},
    {"mmul_pf_1x8", Kernel::kMmul, true, 1, 8, 9570,
     {27271, 5591, 0, 10256, 601, 3488, 29353}},
    {"zoom_orig_1x8", Kernel::kZoom, false, 1, 8, 22712,
     {6183, 5752, 166266, 32, 478, 0, 2985}},
    {"zoom_pf_1x8", Kernel::kZoom, true, 1, 8, 2671,
     {6183, 6255, 0, 32, 546, 5367, 2985}},
    {"bitcnt_orig_1x8", Kernel::kBitcnt, false, 1, 8, 532086,
     {249782, 260747, 3356179, 24966, 194483, 0, 170531}},
    {"bitcnt_pf_1x8", Kernel::kBitcnt, true, 1, 8, 271326,
     {249782, 93459, 1343745, 94598, 202554, 15939, 170531}},
    {"mmul_orig_4x2", Kernel::kMmul, false, 4, 2, 363803,
     {25223, 2183628, 671744, 16, 460, 0, 29353}},
    {"mmul_pf_4x2", Kernel::kMmul, true, 4, 2, 34539,
     {27271, 208016, 0, 10256, 564, 852, 29353}},
    {"zoom_orig_4x2", Kernel::kZoom, false, 4, 2, 88199,
     {6183, 530036, 165896, 32, 460, 0, 2985}},
    {"zoom_pf_4x2", Kernel::kZoom, true, 4, 2, 5501,
     {6183, 33737, 0, 32, 572, 499, 2985}},
    {"bitcnt_orig_4x2", Kernel::kBitcnt, false, 4, 2, 2012112,
     {249782, 12118265, 3354866, 24966, 178486, 0, 170531}},
    {"bitcnt_pf_4x2", Kernel::kBitcnt, true, 4, 2, 1041123,
     {249782, 6275563, 1343523, 94598, 186795, 8192, 170531}},
    {"mmul_orig_1x8_lat1", Kernel::kMmul, false, 1, 8, 11050,
     {25223, 2864, 30650, 16, 294, 0, 29353}, true},
    {"mmul_pf_1x8_lat1", Kernel::kMmul, true, 1, 8, 8982,
     {27271, 2063, 0, 10256, 429, 2484, 29353}, true},
    {"zoom_orig_1x8_lat1", Kernel::kZoom, false, 1, 8, 3343,
     {6183, 2462, 14786, 32, 296, 0, 2985}, true},
    {"zoom_pf_1x8_lat1", Kernel::kZoom, true, 1, 8, 1658,
     {6183, 2534, 0, 32, 362, 1168, 2985}, true},
    {"bitcnt_orig_1x8_lat1", Kernel::kBitcnt, false, 1, 8, 94657,
     {249782, 47931, 141285, 24966, 122761, 0, 170531}, true},
    {"bitcnt_pf_1x8_lat1", Kernel::kBitcnt, true, 1, 8, 92059,
     {249782, 23204, 57711, 94598, 131213, 9433, 170531}, true},
};

/// gtest names the failing parameter with this instead of a byte dump.
void PrintTo(const Pin& pin, std::ostream* os) { *os << pin.name; }

class PaperPins : public ::testing::TestWithParam<Pin> {};

TEST_P(PaperPins, ExactCyclesAndBreakdown) {
    const Pin& pin = GetParam();
    const RunOutcome out = run_ci_case(pin.kernel, pin.prefetch, pin.nodes,
                                       pin.spes_per_node, pin.perfect_cache);
    ASSERT_TRUE(out.correct) << out.detail;
    EXPECT_EQ(out.result.cycles, pin.cycles);
    EXPECT_EQ(out.result.total_breakdown().cycles, pin.buckets);
}

INSTANTIATE_TEST_SUITE_P(CiCases, PaperPins, ::testing::ValuesIn(kPins),
                         [](const ::testing::TestParamInfo<Pin>& info) {
                             return std::string(info.param.name);
                         });

}  // namespace
}  // namespace dta::workloads
