// Fixed-seed fuzz corpus: the seeds the dta_fuzz harness sweeps, pinned so
// the differential property (cycle-level Machine == functional Interpreter
// == host-side replica) and the machine-wide invariant audits run on every
// CI build without any randomness.  Each seed runs on a machine shape
// chosen by the seed itself, cycling through the baseline, a frame-starved
// virtual-frames machine, a two-node machine, and a prefetch-pass
// variant.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/interpreter.hpp"
#include "core/machine.hpp"
#include "sim/check.hpp"
#include "stats/json_report.hpp"
#include "workloads/dataflow_gen.hpp"
#include "../core/test_util.hpp"

namespace dta::core {
namespace {

struct Shape {
    const char* name;
    std::uint16_t nodes;
    std::uint16_t spes;
    std::uint32_t frames;
    bool vfp;
    bool prefetch;
};

constexpr Shape kShapes[] = {
    {"baseline", 1, 2, 16, false, false},
    {"starved-vfp", 1, 2, 6, true, false},
    {"two-node", 2, 2, 16, false, false},
    {"prefetch", 1, 4, 16, false, true},
};
constexpr std::uint32_t kStaging = 1024;

class FuzzCorpus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzCorpus, MachineMatchesInterpreterWithAuditsOn) {
    const std::uint64_t seed = GetParam();
    const Shape& shape = kShapes[seed % std::size(kShapes)];
    SCOPED_TRACE(shape.name);

    workloads::DataflowGenParams gp;
    gp.seed = seed;
    gp.table_reads = shape.prefetch;
    // Without virtual frames, cap the program at one node's frame capacity
    // so no FALLOC can park (deadlock-freedom bound; see dataflow_gen.hpp).
    gp.max_threads =
        shape.vfp ? 48u
                  : std::min(48u, static_cast<std::uint32_t>(shape.spes) *
                                      shape.frames);
    const workloads::DataflowGen gen(gp);
    const auto args = gen.entry_args();

    Interpreter interp(gen.program());
    gen.init_memory(interp.memory());
    interp.launch(args);
    (void)interp.run();
    std::string why;
    ASSERT_TRUE(gen.check(interp.memory(), &why))
        << "interpreter vs replica: " << why;

    auto cfg = test::tiny_config(shape.spes);
    cfg.nodes = shape.nodes;
    cfg.lse = sched::LseConfig::with(shape.frames, kStaging);
    cfg.lse.virtual_frames = shape.vfp;
    cfg.audit.enabled = true;
    cfg.audit.interval = 1;
    const isa::Program prog =
        shape.prefetch ? gen.prefetch_program(kStaging) : gen.program();
    Machine machine(cfg, prog);
    gen.init_memory(machine.memory());
    machine.launch(args);
    (void)machine.run();
    ASSERT_TRUE(gen.check(machine.memory(), &why))
        << "machine vs replica: " << why;

    for (std::uint32_t id = 0; id < gen.thread_count(); ++id) {
        const auto addr = gen.params().out_base + 4ull * id;
        EXPECT_EQ(machine.memory().read_u32(addr),
                  interp.memory().read_u32(addr))
            << "thread " << id;
    }
}

INSTANTIATE_TEST_SUITE_P(Corpus, FuzzCorpus,
                         ::testing::Range<std::uint64_t>(1, 33));

/// Fixed-seed pin of the event-driven-scheduler differential that
/// tools/dta_fuzz sweeps randomly: the same generated program on the same
/// shape, run with the timing wheel and with the dense loop, must produce a
/// byte-identical JSON run report and identical output memory.
class WheelCorpus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WheelCorpus, WheelRunReportMatchesDense) {
    const std::uint64_t seed = GetParam();
    const Shape& shape = kShapes[seed % std::size(kShapes)];
    SCOPED_TRACE(shape.name);

    workloads::DataflowGenParams gp;
    gp.seed = seed;
    gp.table_reads = shape.prefetch;
    gp.max_threads =
        shape.vfp ? 48u
                  : std::min(48u, static_cast<std::uint32_t>(shape.spes) *
                                      shape.frames);
    const workloads::DataflowGen gen(gp);
    const auto args = gen.entry_args();
    const isa::Program prog =
        shape.prefetch ? gen.prefetch_program(kStaging) : gen.program();

    std::string report[2];
    std::vector<std::uint32_t> outputs[2];
    for (const bool use_wheel : {true, false}) {
        auto cfg = test::tiny_config(shape.spes);
        cfg.nodes = shape.nodes;
        cfg.lse = sched::LseConfig::with(shape.frames, kStaging);
        cfg.lse.virtual_frames = shape.vfp;
        cfg.use_wheel = use_wheel;
        // Sampled gauges exercise the wheel's skip-span sample replay.
        cfg.collect_metrics = true;
        Machine machine(cfg, prog);
        gen.init_memory(machine.memory());
        machine.launch(args);
        const RunResult res = machine.run();
        std::string why;
        ASSERT_TRUE(gen.check(machine.memory(), &why))
            << (use_wheel ? "wheel" : "dense") << " vs replica: " << why;
        report[use_wheel ? 0 : 1] = stats::run_report_json(res, "corpus");
        for (std::uint32_t id = 0; id < gen.thread_count(); ++id) {
            outputs[use_wheel ? 0 : 1].push_back(machine.memory().read_u32(
                gen.params().out_base + 4ull * id));
        }
    }
    EXPECT_EQ(report[0], report[1]) << "wheel run report diverged from dense";
    EXPECT_EQ(outputs[0], outputs[1]) << "wheel output memory diverged";
}

INSTANTIATE_TEST_SUITE_P(Corpus, WheelCorpus,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace dta::core
