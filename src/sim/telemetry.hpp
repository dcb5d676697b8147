/// \file telemetry.hpp
/// \brief Live telemetry: periodic machine-wide occupancy frames in a
///        bounded ring, an NDJSON stream for `dta_top`, and a
///        progress/stall watchdog.
///
/// Where the metrics layer (sim/metrics.hpp) accumulates per-instrument
/// series for post-mortem reports, telemetry captures *whole-machine*
/// snapshots — one TelemetryFrame per sample cycle — cheap enough to tail
/// while a paper-scale run is still going.  The discipline is the same as
/// every other observer in this tree:
///
///  * **Off by default.**  With `TelemetryConfig::enabled` false the run
///    loop pays one compare per span.
///  * **Pure observer.**  Frames are read-only captures of simulated
///    state; results (JSON report, event log, memory image) are
///    byte-identical with telemetry on or off
///    (tests/integration/telemetry_neutrality_test.cpp).
///  * **Deterministic.**  The simulated fields of a frame are sampled at
///    each multiple of the interval, post-tick, also inside a span the
///    run loop jumps (state is frozen there by the horizon contract) — so
///    the frame sequence is byte-identical under the default scheduler
///    and the per-cycle reference.  Host-side fields
///    (wall-clock rate, wheel occupancy) ride only the NDJSON stream, never
///    the JSON report, exactly like `RunResult::wheel`.
///
/// The watchdog runs on the same frames: if the machine-wide activity
/// fingerprint is frozen for `watchdog_samples` consecutive samples while
/// the machine is not quiescent, it emits ONE structured diagnostic naming
/// the stalled components (the deadlock-dump names), the current queue
/// depths, and — when checkpoints are enabled — the exact `dta_run
/// --restore` command replaying from the nearest pre-stall snapshot.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace dta::sim {

/// Telemetry knobs.  An *observer* config: deliberately excluded from the
/// structural config echo / snapshot fingerprint (core/machine.cpp), so a
/// snapshot taken in a quiet run can be replayed with telemetry on.
struct TelemetryConfig {
    bool enabled = false;
    /// Simulated cycles between frames.
    std::uint64_t interval = 8192;
    /// Bounded frame ring: once full, the oldest frame is dropped (the
    /// JSON timeline keeps the most recent window; `dropped` counts).
    std::size_t ring_capacity = 4096;
    /// Stall after this many consecutive no-progress samples while
    /// non-quiescent (0 disables the watchdog).
    std::uint32_t watchdog_samples = 16;
    /// NDJSON stream destination ("" = none): a path, typically a FIFO
    /// created with mkfifo(1) and tailed by tools/dta_top.
    std::string stream_path;
};

/// One machine-wide sample.  The fields up to and including
/// `activity_fp` are simulated values — deterministic with the wheel on
/// or off, and the only fields the JSON run report
/// serialises.  The `host_*` / `wheel_*` tail describes the *simulator*
/// (like `RunResult::wheel`) and rides only the NDJSON stream and the
/// Perfetto host tracks.
struct TelemetryFrame {
    std::uint64_t cycle = 0;
    std::uint32_t pes_running = 0;      ///< SPUs with a bound thread
    std::uint32_t threads_ready = 0;    ///< LSE ready queues, summed
    std::uint32_t threads_waitdma = 0;  ///< threads parked in Wait-for-DMA
    std::uint32_t frames_live = 0;      ///< physical + virtual frames
    std::uint32_t mfc_commands = 0;     ///< DMA commands in flight, all MFCs
    std::uint64_t dma_bytes = 0;        ///< DMA line bytes in flight
    std::uint32_t mem_queue = 0;        ///< memory-controller queue depth
    std::uint32_t noc_pending = 0;      ///< packets in flight, all fabrics
    std::uint64_t instrs_retired = 0;   ///< cumulative, machine-wide
    std::uint64_t activity_fp = 0;      ///< machine activity fingerprint

    // --- host-side (stream/trace only; never in the JSON report) --------
    std::uint64_t host_ns = 0;       ///< monotonic host clock at capture
    std::uint64_t wheel_armed = 0;   ///< components armed on the wheel
    std::uint64_t wheel_pops = 0;    ///< cumulative wheel pops
};

/// The watchdog's one-shot diagnostic (latched on first trigger).
struct TelemetryStall {
    std::uint64_t cycle = 0;         ///< sample cycle that tripped it
    std::uint32_t samples = 0;       ///< consecutive no-progress samples
    std::uint64_t stalled_cycles = 0;  ///< cycles since last progress
    std::string components;          ///< deadlock-dump component names
    std::string replay;              ///< `dta_run --restore ...` hint ("" if
                                     ///< checkpoints are off)
};

/// What a run hands back in `RunResult::telemetry`.
struct TelemetryResult {
    bool enabled = false;
    std::uint64_t interval = 0;
    std::vector<TelemetryFrame> frames;  ///< ring contents, oldest first
    std::uint64_t captured = 0;          ///< frames captured in total
    std::uint64_t dropped = 0;           ///< frames evicted from the ring
    bool stalled = false;
    TelemetryStall stall;
};

/// The sampler: bounded ring + watchdog + NDJSON writer.  The machine owns
/// one and calls `record()` with a fully-populated frame at each sample
/// cycle; all capture (reading component state) stays in the machine,
/// which knows the topology.  Thread-safety contract: `record()` is only
/// ever called from the thread running the machine, so no locking is
/// needed.
class TelemetrySampler {
public:
    /// \p stall_info, when set, supplies the machine-level parts of the
    /// watchdog diagnostic (stalled component names + restore hint) at
    /// trigger time.
    using StallInfoFn = std::function<void(TelemetryStall&)>;

    explicit TelemetrySampler(const TelemetryConfig& cfg);
    ~TelemetrySampler();

    TelemetrySampler(const TelemetrySampler&) = delete;
    TelemetrySampler& operator=(const TelemetrySampler&) = delete;

    void set_stall_info(StallInfoFn fn) { stall_info_ = std::move(fn); }
    /// Redirects the watchdog's one-line diagnostic (default: stderr).
    void set_diag_stream(std::FILE* f) { diag_ = f; }

    /// Records one frame: ring append (drop-oldest), watchdog evaluation
    /// against `frame.activity_fp`, and one NDJSON line when streaming.
    /// \p quiescent is the machine's quiescence at the sample cycle — a
    /// quiescent machine is finishing, not stalled.
    void record(const TelemetryFrame& frame, bool quiescent);

    [[nodiscard]] std::uint64_t captured() const { return captured_; }
    [[nodiscard]] bool stalled() const { return stalled_; }
    /// Latest frame (zeroed default before the first sample) — feeds the
    /// `--progress` heartbeat's retire-rate / busiest-component fields.
    [[nodiscard]] const TelemetryFrame& latest() const { return latest_; }

    /// Drains the ring (oldest first) into a result struct.
    [[nodiscard]] TelemetryResult result() const;

    /// One NDJSON line for \p frame — also used by the stream writer.
    /// Contains both the simulated fields and the host-side tail.
    [[nodiscard]] static std::string ndjson_line(const TelemetryFrame& f);
    /// The NDJSON stall line.
    [[nodiscard]] static std::string ndjson_stall_line(
        const TelemetryStall& s);

private:
    void watchdog(const TelemetryFrame& frame, bool quiescent);

    TelemetryConfig cfg_;
    std::vector<TelemetryFrame> ring_;  ///< circular, `head_` = oldest
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t captured_ = 0;
    std::uint64_t dropped_ = 0;
    TelemetryFrame latest_;

    // Watchdog state.
    std::uint64_t last_fp_ = ~0ull;
    std::uint64_t last_progress_cycle_ = 0;
    std::uint32_t frozen_samples_ = 0;
    bool stalled_ = false;
    TelemetryStall stall_;
    StallInfoFn stall_info_;
    std::FILE* diag_ = nullptr;  ///< nullptr = stderr

    std::FILE* stream_ = nullptr;  ///< NDJSON sink (owned)
};

}  // namespace dta::sim
