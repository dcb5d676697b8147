// The host-time profiler must be a pure observer: with profiling on, the
// run's fingerprint — cycle count, spans, DMA spans, event log, and the
// JSON run report minus its host_profile section — is byte-identical to
// the profiling-off run.  And the profile it produces must actually
// account for the run's wall clock.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/machine.hpp"
#include "sim/events.hpp"
#include "sim/prof.hpp"
#include "stats/json_report.hpp"
#include "workloads/harness.hpp"
#include "workloads/mmul.hpp"
#include "workloads/zoom.hpp"

namespace dta::core {
namespace {

struct Fingerprint {
    RunResult res;
    std::string json;    ///< run report (host_profile section stripped)
    std::string events;  ///< DTAEV1 text
};

template <typename Workload>
Fingerprint run_fp(const Workload& w, MachineConfig cfg, bool prefetch,
                   bool profile) {
    cfg.capture_spans = true;
    cfg.collect_metrics = true;
    cfg.collect_events = true;
    cfg.profile = profile;
    workloads::RunOutcome out = workloads::run_workload(w, cfg, prefetch);
    EXPECT_TRUE(out.correct) << out.detail;
    std::ostringstream ev;
    sim::write_events(ev, out.result.events, out.result.cycles,
                      cfg.total_pes(), out.result.code_names);
    // Strip the profiler's own (host-timing, run-to-run varying) section
    // before rendering: what remains must not depend on cfg.profile.
    RunResult stripped = out.result;
    stripped.host_profile = sim::HostProfile{};
    return {std::move(out.result),
            stats::run_report_json(stripped, "neutrality"), ev.str()};
}

void expect_same_fingerprint(const Fingerprint& off, const Fingerprint& on) {
    EXPECT_EQ(off.res.cycles, on.res.cycles);
    EXPECT_EQ(off.json, on.json)
        << "JSON run report (minus host_profile) differs";
    EXPECT_EQ(off.events, on.events) << "event log differs";
    EXPECT_EQ(off.res.spans.size(), on.res.spans.size());
    EXPECT_EQ(off.res.dma_spans.size(), on.res.dma_spans.size());
}

/// The profile must exist as the single "shard0" row, cover (nearly) all
/// of the run's wall clock, and time every phase family the run loop
/// exercises.  The chained charging in the run loops leaves no
/// un-attributed gaps; the 0.9 coverage floor leaves headroom only for a
/// preemption landing between two chain links.
void expect_profile_sane(const sim::HostProfile& host) {
    ASSERT_TRUE(host.enabled);
    ASSERT_EQ(host.shards.size(), 1u);
    const sim::HostProfileShard& s = host.shards[0];
    EXPECT_EQ(s.name, "shard0");
    EXPECT_FALSE(host.entries.empty());
    EXPECT_GT(s.wall_ns, 0u);
    EXPECT_GT(s.coverage(), 0.9);
    EXPECT_LE(s.coverage(), 1.05);  // cannot over-account
    EXPECT_GT(s.phase_ns[static_cast<std::size_t>(sim::ProfPhase::kTick)], 0u);
}

template <typename Workload>
void check_neutral(const Workload& w, MachineConfig cfg) {
    cfg.nodes = 4;
    cfg.spes_per_node = 2;
    for (const bool prefetch : {false, true}) {
        SCOPED_TRACE(prefetch ? "prefetch" : "original");
        const Fingerprint off = run_fp(w, cfg, prefetch, false);
        EXPECT_FALSE(off.res.host_profile.enabled);
        EXPECT_EQ(off.json.find("host_profile"), std::string::npos);
        const Fingerprint on = run_fp(w, cfg, prefetch, true);
        expect_same_fingerprint(off, on);
        expect_profile_sane(on.res.host_profile);
    }
}

TEST(ProfNeutrality, MatrixMultiply) {
    workloads::MatMul::Params p;
    p.n = 16;
    p.threads = 16;
    check_neutral(workloads::MatMul(p),
                  workloads::MatMul::machine_config(8));
}

TEST(ProfNeutrality, Zoom) {
    workloads::Zoom::Params p;
    p.n = 16;
    p.factor = 4;
    p.threads = 16;
    check_neutral(workloads::Zoom(p), workloads::Zoom::machine_config(8));
}

/// The JSON report gains a host_profile section exactly when profiling is
/// on, and that section names every phase the run exercised.
TEST(ProfNeutrality, JsonSectionPresentOnlyWhenEnabled) {
    workloads::MatMul::Params p;
    p.n = 8;
    p.threads = 4;
    const workloads::MatMul w(p);
    MachineConfig cfg = workloads::MatMul::machine_config(2);
    cfg.profile = true;
    const workloads::RunOutcome out =
        workloads::run_workload(w, cfg, true);
    const std::string json =
        stats::run_report_json(out.result, "neutrality");
    EXPECT_TRUE(stats::validate_json(json));
    EXPECT_NE(json.find("\"host_profile\""), std::string::npos);
    EXPECT_NE(json.find("\"tick\""), std::string::npos);
    EXPECT_NE(json.find("\"coverage\""), std::string::npos);
}

}  // namespace
}  // namespace dta::core
