/// \file trace.hpp
/// \brief Execution-trace records: which thread ran where, when — the raw
///        material for per-code profiles and Chrome-trace timelines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dma/mfc.hpp"
#include "sim/metrics.hpp"
#include "sim/prof.hpp"
#include "sim/telemetry.hpp"
#include "sim/types.hpp"
#include "sim/wheel.hpp"

namespace dta::core {

/// One contiguous occupancy of an SPU by a thread (bind to unbind).
struct ThreadSpan {
    sim::GlobalPeId pe = 0;
    sim::Cycle begin = 0;
    sim::Cycle end = 0;           ///< exclusive
    sim::ThreadCodeId code = 0;
    std::uint32_t slot = 0;
    bool resumed = false;         ///< continuation after Wait-for-DMA
};

/// Snapshot serialisation of one span, field by field.
void save_thread_span(sim::StateSink& s, const ThreadSpan& t);
void load_thread_span(sim::StateSource& s, ThreadSpan& t);

/// One dataflow arrow for the Chrome-trace export: from a producer's frame
/// STORE (inside its PS-phase slice) to the consumer thread's dispatch (the
/// start of its first slice).  Produced by the critical-path analyzer
/// (stats/critpath); core only knows how to render them.
struct TraceFlow {
    sim::GlobalPeId src_pe = 0;
    sim::Cycle src_cycle = 0;
    sim::GlobalPeId dst_pe = 0;
    sim::Cycle dst_cycle = 0;
    bool on_critical_path = false;
};

/// Aggregate per-thread-code profile over a run.
struct CodeProfile {
    std::string name;
    std::uint64_t threads_started = 0;   ///< fresh binds (not resumes)
    std::uint64_t dispatches = 0;        ///< binds incl. resumes
    std::uint64_t pipeline_cycles = 0;   ///< cycles an SPU was bound to it
    std::uint64_t instructions = 0;
};

/// Renders a run's spans as a Chrome-trace ("chrome://tracing" /
/// Perfetto-compatible) JSON document: one row per SPU, one slice per
/// thread occupancy.  Timestamps are simulated cycles (reported as us).
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<ThreadSpan>& spans,
    const std::vector<std::string>& code_names);

/// Full-fat variant: thread slices (pid 0) plus one Perfetto counter track
/// per sampled gauge (pid 1, "ph":"C") and one async slice per completed DMA
/// command (pid 2, "ph":"b"/"e", overlapping transfers render stacked).
/// Gauges come from \p metrics (no counter events when it is disabled or
/// empty); either span vector may be empty.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<ThreadSpan>& spans,
    const std::vector<std::string>& code_names,
    const sim::MetricsRegistry& metrics,
    const std::vector<dma::DmaSpan>& dma_spans);

/// Like the full-fat variant, and additionally draws \p flows as Perfetto
/// flow-event arrows ("ph":"s"/"f") between the SPU slices (critical-path
/// edges are named so they can be filtered in the UI).
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<ThreadSpan>& spans,
    const std::vector<std::string>& code_names,
    const sim::MetricsRegistry& metrics,
    const std::vector<dma::DmaSpan>& dma_spans,
    const std::vector<TraceFlow>& flows);

/// Like the flow variant, and additionally renders the host-side profile
/// (pid 3, "host") as one counter track per phase ("<phase> (ns)"): the
/// host nanoseconds that phase consumed per gauge-sampling interval, plotted
/// against simulated time so host cost lines up under the simulated
/// activity that caused it.  \p host disabled or without samples adds
/// nothing (the output is then byte-identical to the flow variant).
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<ThreadSpan>& spans,
    const std::vector<std::string>& code_names,
    const sim::MetricsRegistry& metrics,
    const std::vector<dma::DmaSpan>& dma_spans,
    const std::vector<TraceFlow>& flows, const sim::HostProfile& host);

/// Like the host variant, and additionally renders the event-driven
/// scheduler's counters (pid 4, "wheel") as counter tracks: armed
/// components (occupancy) plus per-sampling-interval pop and insert rates
/// ("armed", "pops", "inserts"), plotted against simulated time.  \p wheel
/// disabled or without samples adds nothing (the output is then
/// byte-identical to the host variant, which the scheduler-policy
/// determinism tests use to keep their traces comparable).
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<ThreadSpan>& spans,
    const std::vector<std::string>& code_names,
    const sim::MetricsRegistry& metrics,
    const std::vector<dma::DmaSpan>& dma_spans,
    const std::vector<TraceFlow>& flows, const sim::HostProfile& host,
    const sim::WheelStats& wheel);

/// Like the wheel variant, and additionally renders the live-telemetry
/// timeline (pid 5, "telemetry") as counter tracks at the sampler's
/// cadence: SPU occupancy, ready / wait-DMA thread counts, live frames,
/// MFC queue depth, in-flight DMA bytes, memory queue depth, NoC backlog,
/// and the per-interval retired-instruction rate.  Only simulated-state
/// fields are drawn; \p telemetry disabled or without frames adds nothing
/// (the output is then byte-identical to the wheel variant).
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<ThreadSpan>& spans,
    const std::vector<std::string>& code_names,
    const sim::MetricsRegistry& metrics,
    const std::vector<dma::DmaSpan>& dma_spans,
    const std::vector<TraceFlow>& flows, const sim::HostProfile& host,
    const sim::WheelStats& wheel, const sim::TelemetryResult& telemetry);

}  // namespace dta::core
