// The default scheduler must be bit-identical to the per-cycle reference
// policy (MachineConfig::use_wheel = false: every component ticked every
// cycle in list order): same cycle count, same spans, same DMA spans,
// byte-identical JSON run reports, byte-identical thread-lifecycle event
// logs, byte-identical critical-path reports and byte-identical Chrome
// traces.  Each paper workload runs on a 4-node x 2-SPE machine, so the
// inter-node ring links and routers are on the path, and on a one-node
// 4-SPE machine, in both the original and the prefetch-pass variants.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/machine.hpp"
#include "core/trace.hpp"
#include "sim/events.hpp"
#include "stats/critpath.hpp"
#include "stats/json_report.hpp"
#include "workloads/bitcnt.hpp"
#include "workloads/fir.hpp"
#include "workloads/harness.hpp"
#include "workloads/mmul.hpp"
#include "workloads/zoom.hpp"

namespace dta::core {
namespace {

struct Captured {
    RunResult res;
    std::string json;
    std::string events;    ///< DTAEV1 text of the merged event log
    std::string critpath;  ///< dta_analyze JSON over that log
    std::string chrome;    ///< full-fat Chrome-trace export (with flows)
};

template <typename Workload>
Captured run_with(const Workload& w, MachineConfig cfg, bool prefetch,
                  bool use_wheel) {
    cfg.use_wheel = use_wheel;
    cfg.capture_spans = true;
    cfg.collect_metrics = true;
    cfg.collect_events = true;
    const workloads::RunOutcome out = workloads::run_workload(w, cfg, prefetch);
    EXPECT_TRUE(out.correct) << out.detail;
    std::ostringstream ev;
    sim::write_events(ev, out.result.events, out.result.cycles,
                      cfg.total_pes(), out.result.code_names);
    sim::EventFile file;
    file.cycles = out.result.cycles;
    file.pes = cfg.total_pes();
    file.code_names = out.result.code_names;
    file.events = out.result.events.flatten();
    const auto analysis = stats::analyze(file);
    const std::string crit = stats::critpath_json(analysis, "det");
    const std::string chrome = chrome_trace_json(
        out.result.spans, out.result.code_names, out.result.metrics,
        out.result.dma_spans, analysis.flows, out.result.host_profile);
    EXPECT_TRUE(stats::validate_json(chrome))
        << "chrome trace is not well-formed JSON";
    return {out.result, stats::run_report_json(out.result, "det"), ev.str(),
            crit, chrome};
}

void expect_identical(const Captured& ref, const Captured& got) {
    EXPECT_EQ(ref.res.cycles, got.res.cycles);
    EXPECT_EQ(ref.json, got.json) << "JSON run report differs";
    EXPECT_EQ(ref.events, got.events) << "event log differs";
    EXPECT_EQ(ref.critpath, got.critpath)
        << "critical-path report differs";
    EXPECT_EQ(ref.chrome, got.chrome) << "chrome trace differs";

    ASSERT_EQ(ref.res.spans.size(), got.res.spans.size());
    for (std::size_t i = 0; i < ref.res.spans.size(); ++i) {
        const ThreadSpan& a = ref.res.spans[i];
        const ThreadSpan& b = got.res.spans[i];
        EXPECT_TRUE(a.pe == b.pe && a.begin == b.begin && a.end == b.end &&
                    a.code == b.code && a.slot == b.slot &&
                    a.resumed == b.resumed)
            << "span " << i;
    }
    ASSERT_EQ(ref.res.dma_spans.size(), got.res.dma_spans.size());
    for (std::size_t i = 0; i < ref.res.dma_spans.size(); ++i) {
        const dma::DmaSpan& a = ref.res.dma_spans[i];
        const dma::DmaSpan& b = got.res.dma_spans[i];
        EXPECT_TRUE(a.pe == b.pe && a.tag == b.tag && a.op == b.op &&
                    a.bytes == b.bytes && a.begin == b.begin && a.end == b.end)
            << "dma span " << i;
    }
}

/// Runs both program variants on a 4-node x 2-SPE and a 1-node x 4-SPE
/// machine and requires the default scheduler to match the per-cycle
/// reference.
template <typename Workload>
void check_wheel_matches_dense(const Workload& w, MachineConfig cfg) {
    struct Shape {
        std::uint16_t nodes;
        std::uint16_t spes;
    };
    for (const Shape shape : {Shape{4, 2}, Shape{1, 4}}) {
        SCOPED_TRACE(std::to_string(shape.nodes) + "x" +
                     std::to_string(shape.spes));
        cfg.nodes = shape.nodes;
        cfg.spes_per_node = shape.spes;
        for (const bool prefetch : {false, true}) {
            SCOPED_TRACE(prefetch ? "prefetch" : "original");
            expect_identical(run_with(w, cfg, prefetch, false),
                             run_with(w, cfg, prefetch, true));
        }
    }
}

TEST(WheelDenseDeterminism, BitCount) {
    workloads::BitCount::Params p;
    p.iterations = 320;
    check_wheel_matches_dense(workloads::BitCount(p),
                              workloads::BitCount::machine_config(8));
}

TEST(WheelDenseDeterminism, Fir) {
    workloads::Fir::Params p;
    p.samples = 512;
    p.taps = 8;
    p.threads = 16;
    check_wheel_matches_dense(workloads::Fir(p),
                              workloads::Fir::machine_config(8));
}

TEST(WheelDenseDeterminism, MatrixMultiply) {
    workloads::MatMul::Params p;
    p.n = 16;
    p.threads = 16;
    check_wheel_matches_dense(workloads::MatMul(p),
                              workloads::MatMul::machine_config(8));
}

TEST(WheelDenseDeterminism, Zoom) {
    workloads::Zoom::Params p;
    p.n = 16;
    p.factor = 4;
    p.threads = 16;
    check_wheel_matches_dense(workloads::Zoom(p),
                              workloads::Zoom::machine_config(8));
}

/// Invariant audits are pure observers: with audits sweeping every cycle
/// the run must stay byte-identical to the unaudited run, under the
/// default scheduler and under the per-cycle reference.
TEST(WheelDenseDeterminism, AuditsOnChangesNothing) {
    workloads::Fir::Params p;
    p.samples = 256;
    p.taps = 4;
    p.threads = 16;
    const workloads::Fir w(p);
    MachineConfig cfg = workloads::Fir::machine_config(8);
    cfg.nodes = 4;
    cfg.spes_per_node = 2;
    const Captured plain = run_with(w, cfg, true, true);
    cfg.audit.enabled = true;
    cfg.audit.interval = 1;
    for (const bool use_wheel : {true, false}) {
        SCOPED_TRACE(use_wheel ? "wheel" : "dense");
        expect_identical(plain, run_with(w, cfg, true, use_wheel));
    }
}

TEST(FastForward, SingleSpeBlockingRunSkipsMostCycles) {
    // One SPE, blocking READs at 150-cycle latency: the machine is globally
    // idle for most of every round trip, so under the default scheduler the
    // overwhelming majority of cycles must be jumped, not landed on.
    workloads::MatMul::Params p;
    p.n = 8;
    p.threads = 8;
    const workloads::MatMul wl(p);
    const MachineConfig cfg = workloads::MatMul::machine_config(1);
    const workloads::RunOutcome out = workloads::run_workload(wl, cfg, false);
    ASSERT_TRUE(out.correct) << out.detail;
    EXPECT_GT(out.cycles_fast_forwarded, out.result.cycles / 2);
}

}  // namespace
}  // namespace dta::core
