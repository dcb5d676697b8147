/// \file config.hpp
/// \brief Machine configuration: Tables 2, 3 and 4 of the paper in one place.
#pragma once

#include <cstdint>

#include "dma/mfc.hpp"
#include "mem/local_store.hpp"
#include "mem/main_memory.hpp"
#include "noc/interconnect.hpp"
#include "noc/link.hpp"
#include "sched/lse.hpp"
#include "sim/audit.hpp"
#include "sim/log.hpp"
#include "sim/telemetry.hpp"
#include "sim/types.hpp"

namespace dta::core {

/// SPU pipeline timing (the simple in-order, dual-issue, no-branch-predictor
/// core DTA assumes; latencies follow the Cell SPU's fixed-point pipes).
struct SpuConfig {
    std::uint32_t alu_latency = 1;
    std::uint32_t mul_latency = 7;
    std::uint32_t div_latency = 20;
    std::uint32_t branch_penalty = 10;  ///< taken-branch flush (no predictor)
    std::uint32_t thread_start_overhead = 4;  ///< bind-to-first-issue cycles
    std::uint32_t dma_program_cycles = 6;  ///< SPU cycles per MFC command setup
    std::uint32_t outbox_depth = 8;        ///< posted READ/WRITE buffer slots

    /// Concurrent main-memory READs one SPU may have in flight.  On the Cell
    /// an SPU has no load path to main memory at all; CellDTA's READ is a
    /// synchronous MFC channel operation, so the paper's no-prefetch runs
    /// serialise on it ("in case of no prefetching the CellDTA is not using
    /// all available bandwidth, since each READ instruction fetches only 4
    /// bytes").  2 models the pair of atomic channels.
    std::uint32_t max_outstanding_reads = 2;

    /// The paper's proposed mechanism: DMAWAIT releases the pipeline
    /// (Wait-for-DMA is a scheduler state).  When false, the thread spins on
    /// the pipeline until its tags complete — the degenerate blocking design
    /// the paper argues against; kept for the ablation benchmarks.
    bool non_blocking_dma = true;

    /// Classify cycles in which the SPU has no ready thread *because* every
    /// local thread is parked in Wait-for-DMA as prefetching overhead rather
    /// than idleness (this matches the paper's accounting, where prefetching
    /// cost that cannot be overlapped shows up as "Prefetching").
    bool count_dma_idle_as_prefetch = true;
};

/// Everything needed to build a Machine.
struct MachineConfig {
    std::uint16_t nodes = 1;
    std::uint16_t spes_per_node = 8;

    mem::MainMemoryConfig memory;      ///< Table 2 (512 MB, 150 cycles, 1 port)
    mem::LocalStoreConfig local_store; ///< Table 2 (6 cycles, 3 ports)
    noc::InterconnectConfig noc;       ///< Table 4 (4 buses, 8 B/cycle)
    noc::LinkConfig link;              ///< inter-node link (multi-node only)
    dma::MfcConfig mfc;                ///< Table 4 (16 commands, 30 cycles)
    sched::LseConfig lse;              ///< frames + staging layout
    SpuConfig spu;

    std::uint64_t max_cycles = 2'000'000'000ull;  ///< runaway guard
    /// If no instruction issues, packet delivers, or memory access completes
    /// for this many cycles while the machine is not quiescent, the run is
    /// declared deadlocked (every architectural latency is orders of
    /// magnitude smaller).  Blocking FALLOCs *can* deadlock a DTA machine
    /// when a program's live-thread peak exceeds the frame supply — the
    /// virtual-frame-pointer fix is cited but explicitly not implemented in
    /// the paper's CellDTA, and neither is it here.
    std::uint64_t no_progress_limit = 1'000'000;
    sim::LogLevel log_level = sim::LogLevel::kOff;
    /// Record one ThreadSpan per SPU occupancy (for Chrome-trace timelines
    /// and scheduling analysis).  Off by default: long runs produce many
    /// spans.
    bool capture_spans = false;
    /// Collect run-wide metrics (latency histograms, gauges sampled every
    /// 256 cycles, DMA spans) into RunResult::metrics.  Off by default;
    /// when off the instrumented hot paths cost a single null check each.
    bool collect_metrics = false;
    /// Record the thread-lifecycle event log (sim/events.hpp) into
    /// RunResult::events for offline critical-path analysis.  Off by
    /// default; when off each instrumented site costs one null check.
    bool collect_events = false;
    /// Machine-wide invariant audits (sim/audit.hpp): cross-component
    /// checks over SC conservation, the frame-slot lifecycle FSM, MFC
    /// line/tag accounting, NoC packet conservation, and address-range
    /// validity, swept at audit.effective_interval() and once more after
    /// quiescence.  Off by default; a violation raises sim::SimError naming
    /// the component, invariant, cycle, and thread uid.
    sim::AuditConfig audit;
    /// Live telemetry (sim/telemetry.hpp): periodic machine-wide occupancy
    /// frames into RunResult::telemetry (+ an optional NDJSON stream for
    /// tools/dta_top, + the progress/stall watchdog).  Off by default; when
    /// off the run loop pays one compare per span.  An observer knob:
    /// excluded from the structural config echo / snapshot fingerprint, so
    /// a snapshot may be replayed with telemetry turned on.
    sim::TelemetryConfig telemetry;
    /// Host-time profiler (sim/prof.hpp): attribute host nanoseconds per
    /// (component, phase) into RunResult::host_profile.  Off by
    /// default; when off every instrumentation site costs one null check.
    /// Profiling only reads the host clock — simulated results, fingerprints
    /// and the rest of RunResult are byte-identical either way.
    bool profile = false;
    /// The scheduling policy of the one run loop (sim/wheel.hpp).  On (the
    /// default), each component is visited only at the horizon its last
    /// tick returned, inbound traffic re-arms sleepers, and the
    /// loop jumps over cycles at which nothing is due.  Off is the
    /// per-cycle reference: every component is re-armed at now + 1 after
    /// each pass, so each one is ticked every cycle in list order and no
    /// horizon decides a visit.  Results are byte-identical either way;
    /// only tests and dta_fuzz turn it off, as the differential oracle.
    bool use_wheel = true;
    /// Retired: a machine always runs on one host thread, and host
    /// parallelism comes from running independent jobs at once (serve's
    /// worker pool).  1 is the only valid value; the Machine constructor
    /// rejects any other with a SimError.  Kept only until the benchmark
    /// harness stops assigning it.
    std::uint32_t host_threads = 1;

    [[nodiscard]] std::uint32_t total_pes() const {
        return static_cast<std::uint32_t>(nodes) * spes_per_node;
    }

    /// The paper's headline configuration: 8 SPEs, one node, memory latency
    /// 150 (Section 4.1).
    [[nodiscard]] static MachineConfig cell_dta(std::uint16_t num_spes = 8) {
        MachineConfig cfg;
        cfg.nodes = 1;
        cfg.spes_per_node = num_spes;
        return cfg;
    }

    /// The Section 4.3 "perfect cache" variant: every latency in the memory
    /// system set to one cycle.
    [[nodiscard]] static MachineConfig perfect_cache(std::uint16_t num_spes = 8) {
        MachineConfig cfg = cell_dta(num_spes);
        cfg.memory.latency = 1;
        cfg.memory.bank_busy = 1;
        cfg.noc.hop_latency = 1;
        // The local store keeps its hardware latency (Table 2): the
        // experiment models main-memory accesses always *hitting a cache*,
        // not a faster LS.  The MFC command latency likewise is controller
        // decode time, not a memory latency, and stays at its Table-4 value.
        return cfg;
    }
};

}  // namespace dta::core
