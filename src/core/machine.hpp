/// \file machine.hpp
/// \brief The whole simulated machine: nodes of PEs, the distributed
///        scheduler, the bus fabric(s), the memory controller, and the run
///        loop (Fig. 2 of the paper).
///
/// Every scheduled part of the machine is a sim::Component registered in one
/// scheduler list (MFCs, ring links and main memory are ticked by their
/// owners); wiring between them is declared once at construction as typed
/// sim::Port bindings.  One run loop drives the list through the due-array
/// scheduler (sim/wheel.hpp): each component is visited only at the cycle
/// its last tick returned, and the loop jumps straight over cycles at which
/// nothing is due (cycle-exact; see docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/breakdown.hpp"
#include "core/config.hpp"
#include "core/mem_interface.hpp"
#include "core/node_router.hpp"
#include "core/pe.hpp"
#include "core/trace.hpp"
#include "core/topology.hpp"
#include "isa/program.hpp"
#include "mem/main_memory.hpp"
#include "noc/interconnect.hpp"
#include "noc/link.hpp"
#include "sched/dse.hpp"
#include "sim/audit.hpp"
#include "sim/component.hpp"
#include "sim/events.hpp"
#include "sim/log.hpp"
#include "sim/metrics.hpp"
#include "sim/prof.hpp"
#include "sim/telemetry.hpp"
#include "sim/wheel.hpp"

namespace dta::core {

/// Per-PE slice of a run's results.
struct PeReport {
    Breakdown breakdown;
    InstrStats instrs;
    std::uint64_t issue_slots_used = 0;
    std::uint64_t cycles_with_issue = 0;
    std::uint64_t threads_executed = 0;
    sched::LseStats lse;
};

/// Everything a finished simulation reports.
struct RunResult {
    sim::Cycle cycles = 0;
    std::vector<PeReport> pes;

    // fabric / memory / scheduler aggregates
    noc::InterconnectStats noc;
    std::uint64_t mem_reads = 0;
    std::uint64_t mem_writes = 0;
    std::uint64_t mem_bytes_read = 0;
    std::uint64_t mem_bytes_written = 0;
    std::size_t mem_peak_queue = 0;
    std::uint64_t dma_commands = 0;
    std::uint64_t dma_bytes = 0;
    std::uint64_t dse_requests = 0;
    std::uint64_t dse_queued = 0;
    std::size_t dse_peak_pending = 0;

    /// Per-thread-code profile (always collected; cheap counters).
    std::vector<CodeProfile> profile;
    /// SPU occupancy spans (only when MachineConfig::capture_spans).
    std::vector<ThreadSpan> spans;
    /// Thread-code names, aligned with span code ids (for trace rendering).
    std::vector<std::string> code_names;
    /// Run-wide histograms, counters and gauge time-series (populated only
    /// when MachineConfig::collect_metrics; otherwise disabled and empty).
    sim::MetricsRegistry metrics;
    /// One span per completed DMA command (only with collect_metrics).
    std::vector<dma::DmaSpan> dma_spans;
    /// Thread-lifecycle event log in canonical (cycle, ordinal) order (only
    /// when MachineConfig::collect_events; otherwise empty).
    sim::EventLog events;
    /// Host-time profile per (component, phase) (only when
    /// MachineConfig::profile; otherwise disabled and empty).  Host-side
    /// only: every other RunResult field is byte-identical with profiling
    /// on or off.
    sim::HostProfile host_profile;
    /// The scheduler's own behaviour (always collected).  Host-side only,
    /// like host_profile: excluded from the JSON run report and every
    /// byte-identity comparison — the simulated results are byte-identical
    /// under the default scheduler and the per-cycle reference
    /// (MachineConfig::use_wheel), while these counters are not.
    sim::WheelStats wheel;
    /// Live-telemetry timeline (only when MachineConfig::telemetry.enabled;
    /// otherwise disabled and empty).  The frames' simulated fields are
    /// deterministic — byte-identical under either scheduling policy — and
    /// are serialised into the JSON report's `telemetry`
    /// section; the host-side frame tail (host_ns, wheel_*) rides only the
    /// NDJSON stream, exactly like RunResult::wheel.
    sim::TelemetryResult telemetry;

    [[nodiscard]] Breakdown total_breakdown() const;
    [[nodiscard]] InstrStats total_instrs() const;
    /// Fig. 9 metric: fraction of SPU cycles with at least one issue.
    [[nodiscard]] double pipeline_usage() const;
    /// Stricter usage: issue slots used over 2-wide capacity.
    [[nodiscard]] double slot_utilisation() const;
};

/// Serialises the structural parts of a machine description — everything
/// that shapes what the machine *is* (shape, latencies, engine layouts)
/// plus a digest of the loaded program — into \p s.  Shared by Machine
/// snapshots (the snapshot's `config` section and its fingerprint) and the
/// serve result cache (docs/SERVING.md), which keys memoized runs on the
/// same bytes.  Observer knobs (log level, audits, profiling, telemetry,
/// the scheduling policy) are deliberately excluded.
void structural_config_echo(sim::StateSink& s, const MachineConfig& cfg,
                            const isa::Program& prog);

/// FNV-1a 64 over structural_config_echo's bytes.  Equals
/// Machine::config_fingerprint() for a machine built from (cfg, prog).
[[nodiscard]] std::uint64_t structural_fingerprint(const MachineConfig& cfg,
                                                   const isa::Program& prog);

/// A complete DTA machine.
class Machine {
public:
    /// Validates \p prog and builds the machine; both are copied so the
    /// caller's objects may go away.
    Machine(MachineConfig cfg, isa::Program prog);

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    /// Functional access to main memory for input/output data.
    [[nodiscard]] mem::MainMemory& memory() { return mem_; }
    [[nodiscard]] const mem::MainMemory& memory() const { return mem_; }
    [[nodiscard]] const isa::Program& program() const { return prog_; }
    [[nodiscard]] const MachineConfig& config() const { return cfg_; }

    /// Installs a trace sink (optional; default off).
    void set_log_sink(sim::LogLevel level, sim::Logger::Sink sink) {
        logger_.configure(level, std::move(sink));
    }

    /// Seeds the entry thread (the TLP activity the PPE offloads): a frame
    /// on PE 0 pre-filled with \p args, immediately ready.
    void launch(std::span<const std::uint64_t> args);

    /// One progress heartbeat.
    struct Progress {
        sim::Cycle cycle = 0;
        std::uint64_t live_threads = 0;
        sim::Cycle ticked = 0;   ///< cycles the run loop landed on
        sim::Cycle skipped = 0;  ///< cycles it jumped (nothing was due)
        /// Live-telemetry summary (zero / empty unless telemetry is on and
        /// a frame has been captured): cumulative retired instructions at
        /// the latest sample, its cycle, and the busiest component's name.
        std::uint64_t instrs_retired = 0;
        sim::Cycle sample_cycle = 0;
        std::string busiest;
    };
    /// Periodic progress callback: invoked at every multiple of
    /// \p interval simulated cycles, under either scheduling policy.
    /// Install before run(); null \p fn or a zero \p interval disables.
    using ProgressFn = std::function<void(const Progress&)>;
    void set_progress(sim::Cycle interval, ProgressFn fn) {
        beats_.every = fn ? interval : 0;
        progress_ = std::move(fn);
    }

    /// Command prefix for the telemetry watchdog's `--restore` replay hint
    /// (e.g. "dta_run prog.dta --spes 4"); the nearest pre-stall snapshot
    /// path is appended when the watchdog fires.  Default "dta_run".
    void set_replay_hint(std::string prefix) {
        replay_hint_ = std::move(prefix);
    }
    /// The live-telemetry sampler, or nullptr when telemetry is off (for
    /// tools that stream or inspect mid-run state).
    [[nodiscard]] const sim::TelemetrySampler* telemetry() const {
        return telemetry_.get();
    }
    /// Redirects the telemetry watchdog's diagnostic away from stderr
    /// (tests capture and assert on it).  No-op when telemetry is off.
    void set_telemetry_diag(std::FILE* f) {
        if (telemetry_ != nullptr) {
            telemetry_->set_diag_stream(f);
        }
    }

    /// Runs the simulation to completion and returns the statistics.
    /// Throws sim::SimError on deadlock or when max_cycles is exceeded.
    [[nodiscard]] RunResult run();

    // --- checkpoint/restore (sim/snapshot.hpp) ---------------------------
    /// FNV-1a 64 hash over the serialised structural config echo plus a
    /// digest of the loaded program.  Snapshots carry it; restore refuses a
    /// mismatch.  Observer knobs (log level, audits, profiling, telemetry,
    /// the scheduling policy) are excluded so a snapshot can be replayed
    /// with extra instrumentation turned on — time-travel debugging.
    [[nodiscard]] std::uint64_t config_fingerprint() const;
    /// Writes a snapshot of the current (launched, not yet run — or
    /// restored) machine state to \p path.
    void checkpoint(const std::string& path);
    /// Restores machine state from \p path into this freshly built machine
    /// (before launch()/run(); restore replaces launch).  Throws SimError
    /// on a version or config-fingerprint mismatch, and runs a full
    /// invariant audit over the restored state when audits are enabled.
    void restore(const std::string& path);
    /// Arms periodic checkpoints during run(): one snapshot at every
    /// multiple of \p every cycles, at `prefix + ".c<cycle>.dtasnap"`.
    void set_checkpoints(sim::Cycle every, std::string prefix);
    /// Ends run() at exactly cycle \p cycle (state as of the cut; the
    /// machine need not be quiescent).  The partial RunResult covers
    /// [start, cycle); final quiescence audits are skipped.
    void set_stop_at(sim::Cycle cycle) { stop_at_ = cycle; }
    /// Cycle/path of the newest snapshot run() wrote (0/"" if none) — the
    /// fuzzer's bisect loop refines from here.
    [[nodiscard]] sim::Cycle last_checkpoint_cycle() const {
        return last_ckpt_cycle_;
    }
    [[nodiscard]] const std::string& last_checkpoint_path() const {
        return last_ckpt_path_;
    }
    /// First simulated cycle of this run (non-zero after restore()).
    [[nodiscard]] sim::Cycle start_cycle() const { return restore_cycle_; }

    /// The machine-wide invariant auditor (live when cfg.audit.enabled).
    /// Tests and the fuzzer may add extra checks before run() — e.g. an
    /// always-failing one to validate the failure-reporting path.
    [[nodiscard]] sim::Auditor& auditor() { return auditor_; }

    /// Component access for tests.
    [[nodiscard]] Pe& pe(sim::GlobalPeId id) { return *pes_[id]; }
    [[nodiscard]] std::uint32_t num_pes() const {
        return static_cast<std::uint32_t>(pes_.size());
    }
    [[nodiscard]] sched::Dse& dse(std::uint16_t node) { return dses_[node]; }
    /// Cycles run() jumped over because no component was due (always 0
    /// under the per-cycle reference policy).  Deliberately *not* part of
    /// RunResult: results are identical either way.
    [[nodiscard]] sim::Cycle cycles_fast_forwarded() const { return skipped_; }

private:
    void sample_gauges(sim::Cycle now);
    /// Serves what the span [from, to) opened by the visits at \p from
    /// owes: gauge samples, telemetry frames and heartbeats at each owed
    /// cycle, and one audit sweep labelled with its first owed multiple.
    /// No cycle of the span changes the state (the horizon contract).
    void observe(sim::Cycle from, sim::Cycle to);
    /// Runs the no-progress checkpoints owed before \p to on one
    /// fingerprint.
    void watch(sim::Cycle to);
    /// One no-progress checkpoint: throws the deadlock error once the
    /// activity fingerprint \p fp has not changed for more than
    /// no_progress_limit cycles.
    void check_progress(sim::Cycle c, std::uint64_t fp);
    /// Binds the wake hooks of every port a component drains to wheel_,
    /// addressing each consumer by its index in components_.
    void attach_wakers();
    /// Registers the per-component invariant checks into auditor_.
    void register_audit_checks();
    /// Registers the machine-wide quiescence checks (run once after the
    /// run completes): frame supply back at the DSEs, remote-store
    /// conservation across the NoC, drained engines and fabrics.
    void register_final_checks();
    /// True when every component is quiescent.  The run loop does not
    /// poll it: under the default policy it asks only once wheel_ is idle
    /// (the horizon rule makes every quiescent machine idle), plus at
    /// telemetry frames and on the no-progress error path; the per-cycle
    /// reference asks every cycle, to check that rule.
    [[nodiscard]] bool check_quiescent() const;
    /// Activity fingerprint for no-progress (deadlock) detection.
    [[nodiscard]] std::uint64_t fingerprint() const;
    [[nodiscard]] std::string non_quiescent_names() const;
    /// Names of the components wheel_ holds armed at a finite cycle.
    [[nodiscard]] std::string armed_names() const;
    [[noreturn]] void throw_deadlock(sim::Cycle now, sim::Cycle stalled,
                                     bool idle_forever) const;
    [[nodiscard]] RunResult gather(sim::Cycle cycles) const;

    // --- checkpoint/restore internals ------------------------------------
    /// Serialises the whole machine state at \p cycle into \p path.
    void save_snapshot_file(sim::Cycle cycle, const std::string& path) const;
    /// Periodic checkpoint at a run-loop cut (derives the path from the
    /// prefix and records it for last_checkpoint_*).
    void write_snapshot(sim::Cycle cycle);
    /// Next cycle the run loop must land on exactly (the next snapshot or
    /// stop_at); kCycleNever when neither is armed.  Skipped spans are
    /// clamped to it — result-neutral, skipping is accounting-identical.
    [[nodiscard]] sim::Cycle next_cut(sim::Cycle now) const;
    /// The early-exit path of --stop-at: canonicalise what was collected
    /// and gather the partial result (no final quiescence audit).
    [[nodiscard]] RunResult stop_early(sim::Cycle cycle);

    /// Captures one machine-wide telemetry frame at \p now (post-tick state).
    void capture_telemetry(sim::Cycle now);
    /// Fires progress_ for cycle \p now, \p skipped cycles of the run
    /// having been jumped by then.
    void report_progress(sim::Cycle now, sim::Cycle skipped);
    /// The host-time profiler's buffer, or nullptr when profiling is off.
    [[nodiscard]] sim::ProfBuffer* prof_buffer() {
        return cfg_.profile ? &prof_ : nullptr;
    }

    MachineConfig cfg_;
    isa::Program prog_;
    /// Issue facts of prog_, decoded once and shared by every PE.
    isa::DecodedProgram decoded_;
    sched::Topology topo_;
    FabricLayout layout_;
    sim::Logger logger_;

    mem::MainMemory mem_;
    std::vector<noc::Interconnect> fabrics_;  ///< one per node
    std::vector<noc::Link> links_;            ///< ring: node i -> (i+1)%n
    std::vector<std::unique_ptr<Pe>> pes_;
    std::vector<sched::Dse> dses_;
    std::unique_ptr<MemInterface> memif_;             ///< node 0
    std::vector<std::unique_ptr<NodeRouter>> routers_;  ///< one per node

    /// Scheduler order: fabrics, DSEs, memif, PEs, routers — the exact
    /// dependency order of the seed's hand-rolled per-cycle loop.
    std::vector<sim::Component*> components_;
    sim::Cycle skipped_ = 0;
    /// The scheduler that drives every run.
    sim::WheelScheduler wheel_;
    /// No-progress watch: the fingerprint read at the last checkpoint and
    /// the checkpoint cycle at which it last changed.
    std::uint64_t watch_fp_ = ~0ull;
    sim::Cycle watch_since_ = 0;

    // The run loop's periodic duties, one clock each (every == 0: off).
    static constexpr sim::Cycle kGaugeEvery = 256;
    sim::Cadence gauges_;     ///< gauge samples (collect_metrics)
    sim::Cadence frames_;     ///< telemetry frames (telemetry.enabled)
    sim::Cadence audits_;     ///< invariant audit sweeps (audit.enabled)
    sim::Cadence beats_;      ///< progress heartbeats (set_progress)
    sim::Cadence stalls_{0x1000, 0xfff};  ///< no-progress checkpoints
    sim::Cadence snapshots_;  ///< periodic snapshots (set_checkpoints)

    std::vector<ThreadSpan> spans_;  ///< filled when cfg_.capture_spans

    // event log (live only when cfg_.collect_events)
    sim::EventLog events_;

    // progress reporting (live only when set_progress installed a callback)
    ProgressFn progress_;

    // invariant audits (live only when cfg_.audit.enabled)
    sim::Auditor auditor_;  ///< machine-wide checks + final checks

    // host-time profiler (live only when cfg_.profile), sized once at
    // construction — the wheel holds a pointer into it.
    sim::ProfBuffer prof_;

    // live telemetry (live only when cfg_.telemetry.enabled)
    std::unique_ptr<sim::TelemetrySampler> telemetry_;

    // metrics (live only when cfg_.collect_metrics)
    sim::MetricsRegistry metrics_;
    std::vector<dma::DmaSpan> dma_spans_;
    sim::GaugeSeries* g_dma_cmds_ = nullptr;
    sim::GaugeSeries* g_dma_lines_ = nullptr;
    sim::GaugeSeries* g_mem_queue_ = nullptr;
    std::vector<sim::GaugeSeries*> g_noc_pending_;  ///< one per fabric

    bool launched_ = false;
    bool ran_ = false;

    // --- checkpoint/restore state ----------------------------------------
    sim::Cycle restore_cycle_ = 0;      ///< run starts here after restore()
    std::string checkpoint_prefix_;
    sim::Cycle stop_at_ = 0;            ///< 0 = run to quiescence
    sim::Cycle last_ckpt_cycle_ = 0;
    std::string last_ckpt_path_;
    /// Command prefix for the telemetry watchdog's replay hint; the
    /// nearest pre-stall snapshot path is appended at stall time.
    std::string replay_hint_ = "dta_run";
};

}  // namespace dta::core
