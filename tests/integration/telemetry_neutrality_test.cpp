// Live telemetry must be a pure observer: with telemetry on, the run's
// fingerprint — cycle count, spans, DMA spans, event log, and the JSON run
// report minus its telemetry section — is byte-identical to the
// telemetry-off run, with the event-driven scheduler on or off.  And the
// frames it captures must themselves be deterministic: the same simulated
// timeline in either run loop (frames ride aligned sample cycles in both).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/machine.hpp"
#include "sim/events.hpp"
#include "sim/telemetry.hpp"
#include "stats/json_report.hpp"
#include "workloads/harness.hpp"
#include "workloads/mmul.hpp"
#include "workloads/zoom.hpp"

namespace dta::core {
namespace {

constexpr std::uint64_t kInterval = 256;

struct Fingerprint {
    RunResult res;
    std::string json;    ///< run report (telemetry section stripped)
    std::string events;  ///< DTAEV1 text
};

/// Serialises the simulated fields of a frame sequence — the part that
/// must be bit-equal across run-loop modes.  Host-side fields (host_ns,
/// wheel_*) are excluded by design.
std::string frames_key(const sim::TelemetryResult& t) {
    std::ostringstream os;
    for (const sim::TelemetryFrame& f : t.frames) {
        os << f.cycle << ':' << f.pes_running << ',' << f.threads_ready
           << ',' << f.threads_waitdma << ',' << f.frames_live << ','
           << f.mfc_commands << ',' << f.dma_bytes << ',' << f.mem_queue
           << ',' << f.noc_pending << ',' << f.instrs_retired << ','
           << f.activity_fp << ';';
    }
    return os.str();
}

template <typename Workload>
Fingerprint run_fp(const Workload& w, MachineConfig cfg, bool prefetch,
                   bool use_wheel, bool telemetry) {
    cfg.use_wheel = use_wheel;
    cfg.capture_spans = true;
    cfg.collect_metrics = true;
    cfg.collect_events = true;
    if (telemetry) {
        cfg.telemetry.enabled = true;
        cfg.telemetry.interval = kInterval;
    }
    workloads::RunOutcome out = workloads::run_workload(w, cfg, prefetch);
    EXPECT_TRUE(out.correct) << out.detail;
    std::ostringstream ev;
    sim::write_events(ev, out.result.events, out.result.cycles,
                      cfg.total_pes(), out.result.code_names);
    // Strip the telemetry section before rendering: what remains must not
    // depend on cfg.telemetry.
    RunResult stripped = out.result;
    stripped.telemetry = sim::TelemetryResult{};
    return {std::move(out.result),
            stats::run_report_json(stripped, "neutrality"), ev.str()};
}

template <typename Workload>
void check_neutral_and_deterministic(const Workload& w, MachineConfig cfg) {
    cfg.nodes = 4;
    cfg.spes_per_node = 2;
    for (const bool prefetch : {false, true}) {
        SCOPED_TRACE(prefetch ? "prefetch" : "original");
        std::string ref_frames;  // wheel on — the reference
        for (const bool wheel : {true, false}) {
            SCOPED_TRACE("wheel=" + std::to_string(wheel));
            const Fingerprint off = run_fp(w, cfg, prefetch, wheel, false);
            EXPECT_FALSE(off.res.telemetry.enabled);
            EXPECT_EQ(off.json.find("\"telemetry\""), std::string::npos);
            const Fingerprint on = run_fp(w, cfg, prefetch, wheel, true);
            // Pure observer: everything else byte-identical.
            EXPECT_EQ(off.res.cycles, on.res.cycles);
            EXPECT_EQ(off.json, on.json)
                << "JSON report (minus telemetry) differs";
            EXPECT_EQ(off.events, on.events) << "event log differs";
            EXPECT_EQ(off.res.spans.size(), on.res.spans.size());
            EXPECT_EQ(off.res.dma_spans.size(), on.res.dma_spans.size());
            // Deterministic timeline: simulated frame fields identical
            // across wheel modes.
            ASSERT_TRUE(on.res.telemetry.enabled);
            EXPECT_GT(on.res.telemetry.captured, 0u);
            EXPECT_FALSE(on.res.telemetry.stalled)
                << "watchdog fired on a passing run";
            for (const sim::TelemetryFrame& f : on.res.telemetry.frames) {
                EXPECT_EQ(f.cycle % kInterval, 0u);
            }
            const std::string key = frames_key(on.res.telemetry);
            if (ref_frames.empty()) {
                ref_frames = key;
            } else {
                EXPECT_EQ(key, ref_frames)
                    << "telemetry timeline depends on the run-loop mode";
            }
        }
    }
}

TEST(TelemetryNeutrality, MatrixMultiply) {
    workloads::MatMul::Params p;
    p.n = 16;
    p.threads = 16;
    check_neutral_and_deterministic(workloads::MatMul(p),
                                    workloads::MatMul::machine_config(8));
}

TEST(TelemetryNeutrality, Zoom) {
    workloads::Zoom::Params p;
    p.n = 16;
    p.factor = 4;
    p.threads = 16;
    check_neutral_and_deterministic(workloads::Zoom(p),
                                    workloads::Zoom::machine_config(8));
}

/// The JSON report gains a telemetry section exactly when telemetry is on,
/// carrying only the simulated fields (never host_ns / wheel counters).
TEST(TelemetryNeutrality, JsonSectionPresentOnlyWhenEnabled) {
    workloads::MatMul::Params p;
    p.n = 8;
    p.threads = 4;
    const workloads::MatMul w(p);
    MachineConfig cfg = workloads::MatMul::machine_config(2);
    cfg.telemetry.enabled = true;
    cfg.telemetry.interval = 64;
    const workloads::RunOutcome out = workloads::run_workload(w, cfg, true);
    const std::string json = stats::run_report_json(out.result, "neutrality");
    EXPECT_TRUE(stats::validate_json(json));
    EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
    EXPECT_NE(json.find("\"instrs_retired\""), std::string::npos);
    EXPECT_NE(json.find("\"stalled\": false"), std::string::npos);
    EXPECT_EQ(json.find("host_ns"), std::string::npos);
    EXPECT_EQ(json.find("wheel_"), std::string::npos);
    // The host section (wheel counters) is a separate opt-in.
    EXPECT_EQ(json.find("\"host\""), std::string::npos);
    const std::string with_host =
        stats::run_report_json(out.result, "neutrality", true);
    EXPECT_TRUE(stats::validate_json(with_host));
    EXPECT_NE(with_host.find("\"host\""), std::string::npos);
    EXPECT_NE(with_host.find("\"pops\""), std::string::npos);
}

/// Snapshot compatibility: cfg.telemetry is an observer knob, so its
/// config fingerprint matches the telemetry-off machine's — a snapshot
/// from a quiet run can be replayed with telemetry on.
TEST(TelemetryNeutrality, ConfigFingerprintExcludesTelemetry) {
    workloads::MatMul::Params p;
    p.n = 8;
    p.threads = 4;
    const workloads::MatMul w(p);
    MachineConfig cfg = workloads::MatMul::machine_config(2);
    const Machine off(cfg, w.program());
    cfg.telemetry.enabled = true;
    cfg.telemetry.interval = 32;
    const Machine on(cfg, w.program());
    EXPECT_EQ(off.config_fingerprint(), on.config_fingerprint());
}

}  // namespace
}  // namespace dta::core
