#include "core/trace.hpp"

#include <sstream>

namespace dta::core {

namespace {

/// Emits one event object, managing the leading comma.
class EventWriter {
public:
    explicit EventWriter(std::ostringstream& os) : os_(os) { os_ << "[\n"; }

    std::ostringstream& next() {
        if (!first_) {
            os_ << ",\n";
        }
        first_ = false;
        return os_;
    }

    void finish() { os_ << "\n]\n"; }

private:
    std::ostringstream& os_;
    bool first_ = true;
};

void emit_process_name(EventWriter& w, int pid, const char* name) {
    w.next() << R"(  {"name": "process_name", "ph": "M", "pid": )" << pid
             << R"(, "args": {"name": ")" << name << R"("}})";
}

/// Perfetto row metadata: name and pin the SPU tracks in PE-id order.  The
/// set of rows is derived from the spans so empty runs emit nothing.
void emit_spu_track_names(EventWriter& w,
                          const std::vector<ThreadSpan>& spans) {
    std::uint32_t max_pe = 0;
    if (spans.empty()) {
        return;
    }
    for (const ThreadSpan& s : spans) {
        max_pe = s.pe > max_pe ? s.pe : max_pe;
    }
    for (std::uint32_t pe = 0; pe <= max_pe; ++pe) {
        w.next() << R"(  {"name": "thread_name", "ph": "M", "pid": 0, "tid": )"
                 << pe << R"(, "args": {"name": "spu)" << pe << R"("}})";
        w.next() << R"(  {"name": "thread_sort_index", "ph": "M", "pid": 0, )"
                 << R"("tid": )" << pe << R"(, "args": {"sort_index": )" << pe
                 << "}}";
    }
}

void emit_thread_slices(EventWriter& w, const std::vector<ThreadSpan>& spans,
                        const std::vector<std::string>& code_names) {
    for (const ThreadSpan& s : spans) {
        const std::string name =
            s.code < code_names.size() ? code_names[s.code]
                                       : "code" + std::to_string(s.code);
        w.next() << R"(  {"name": ")" << name
                 << (s.resumed ? " (resume)" : "")
                 << R"(", "cat": "thread", "ph": "X", "ts": )" << s.begin
                 << R"(, "dur": )" << (s.end - s.begin)
                 << R"(, "pid": 0, "tid": )" << s.pe
                 << R"(, "args": {"slot": )" << s.slot << "}}";
    }
}

}  // namespace

std::string chrome_trace_json(const std::vector<ThreadSpan>& spans,
                              const std::vector<std::string>& code_names) {
    std::ostringstream os;
    EventWriter w(os);
    emit_thread_slices(w, spans, code_names);
    w.finish();
    return os.str();
}

std::string chrome_trace_json(const std::vector<ThreadSpan>& spans,
                              const std::vector<std::string>& code_names,
                              const sim::MetricsRegistry& metrics,
                              const std::vector<dma::DmaSpan>& dma_spans) {
    return chrome_trace_json(spans, code_names, metrics, dma_spans, {});
}

std::string chrome_trace_json(const std::vector<ThreadSpan>& spans,
                              const std::vector<std::string>& code_names,
                              const sim::MetricsRegistry& metrics,
                              const std::vector<dma::DmaSpan>& dma_spans,
                              const std::vector<TraceFlow>& flows) {
    return chrome_trace_json(spans, code_names, metrics, dma_spans, flows,
                             sim::HostProfile{});
}

std::string chrome_trace_json(const std::vector<ThreadSpan>& spans,
                              const std::vector<std::string>& code_names,
                              const sim::MetricsRegistry& metrics,
                              const std::vector<dma::DmaSpan>& dma_spans,
                              const std::vector<TraceFlow>& flows,
                              const sim::HostProfile& host) {
    return chrome_trace_json(spans, code_names, metrics, dma_spans, flows,
                             host, sim::WheelStats{});
}

std::string chrome_trace_json(const std::vector<ThreadSpan>& spans,
                              const std::vector<std::string>& code_names,
                              const sim::MetricsRegistry& metrics,
                              const std::vector<dma::DmaSpan>& dma_spans,
                              const std::vector<TraceFlow>& flows,
                              const sim::HostProfile& host,
                              const sim::WheelStats& wheel) {
    return chrome_trace_json(spans, code_names, metrics, dma_spans, flows,
                             host, wheel, sim::TelemetryResult{});
}

std::string chrome_trace_json(const std::vector<ThreadSpan>& spans,
                              const std::vector<std::string>& code_names,
                              const sim::MetricsRegistry& metrics,
                              const std::vector<dma::DmaSpan>& dma_spans,
                              const std::vector<TraceFlow>& flows,
                              const sim::HostProfile& host,
                              const sim::WheelStats& wheel,
                              const sim::TelemetryResult& telemetry) {
    std::ostringstream os;
    EventWriter w(os);
    emit_process_name(w, 0, "SPUs");
    emit_process_name(w, 1, "counters");
    emit_process_name(w, 2, "DMA");
    if (host.enabled) {
        emit_process_name(w, 3, "host");
    }
    if (wheel.enabled && !wheel.samples.empty()) {
        emit_process_name(w, 4, "wheel");
    }
    if (telemetry.enabled && !telemetry.frames.empty()) {
        emit_process_name(w, 5, "telemetry");
    }
    emit_spu_track_names(w, spans);
    emit_thread_slices(w, spans, code_names);

    // One counter track per gauge: Perfetto draws "ph":"C" events sharing a
    // (pid, name) as a stepped time-series.
    for (const auto& [name, series] : metrics.gauges()) {
        for (const sim::GaugeSample& s : series.samples()) {
            w.next() << R"(  {"name": ")" << name
                     << R"(", "cat": "gauge", "ph": "C", "ts": )" << s.cycle
                     << R"(, "pid": 1, "args": {"value": )" << s.value
                     << "}}";
        }
    }

    // DMA transfers as async begin/end pairs so concurrent commands on one
    // MFC stack instead of colliding on a thread track.
    std::uint64_t id = 0;
    for (const dma::DmaSpan& d : dma_spans) {
        const char* op = d.op == dma::MfcOp::kGet ? "GET" : "PUT";
        w.next() << R"(  {"name": ")" << op << ' ' << d.bytes
                 << R"(B", "cat": "dma", "ph": "b", "id": )" << id
                 << R"(, "ts": )" << d.begin << R"(, "pid": 2, "tid": )"
                 << d.pe << R"(, "args": {"tag": )" << d.tag
                 << R"(, "bytes": )" << d.bytes << "}}";
        w.next() << R"(  {"name": ")" << op << ' ' << d.bytes
                 << R"(B", "cat": "dma", "ph": "e", "id": )" << id
                 << R"(, "ts": )" << d.end << R"(, "pid": 2, "tid": )" << d.pe
                 << "}";
        ++id;
    }

    // Dataflow arrows: a flow starts inside the producer's slice ("ph":"s")
    // and ends at the consumer's dispatch ("ph":"f", "bp":"e" binds to the
    // enclosing slice even though the timestamp is its left edge).
    std::uint64_t flow_id = 0;
    for (const TraceFlow& f : flows) {
        const char* name = f.on_critical_path ? "critical-store" : "store";
        w.next() << R"(  {"name": ")" << name
                 << R"(", "cat": "dataflow", "ph": "s", "id": )" << flow_id
                 << R"(, "ts": )" << f.src_cycle << R"(, "pid": 0, "tid": )"
                 << f.src_pe << "}";
        w.next() << R"(  {"name": ")" << name
                 << R"(", "cat": "dataflow", "ph": "f", "bp": "e", "id": )"
                 << flow_id << R"(, "ts": )" << f.dst_cycle
                 << R"(, "pid": 0, "tid": )" << f.dst_pe << "}";
        ++flow_id;
    }

    // Host-side tracks: per phase ("<phase> (ns)"), the host nanoseconds
    // burnt in each gauge-sampling interval, plotted against simulated
    // time.  The snapshots carry cumulative totals, so each point is a delta
    // from the previous one; phases the run never touched are skipped
    // entirely.
    if (host.enabled) {
        for (std::size_t p = 0; p < sim::kNumProfPhases; ++p) {
            if (host.phase_ns[p] == 0) {
                continue;
            }
            std::uint64_t prev = 0;
            for (const sim::ProfSnapshot& snap : host.samples) {
                w.next() << R"(  {"name": ")"
                         << sim::prof_phase_name(static_cast<sim::ProfPhase>(p))
                         << R"j( (ns)", "cat": "host", "ph": "C", "ts": )j"
                         << snap.cycle << R"(, "pid": 3, "args": )"
                         << R"({"value": )" << snap.ns[p] - prev << "}}";
                prev = snap.ns[p];
            }
        }
    }
    // Event-driven scheduler tracks ("armed", "pops", "inserts"): the
    // armed-component count (an occupancy gauge) plus pop and insert *rates*
    // over each sampling interval (the samples carry cumulative totals, so
    // each point is a delta from the previous one); runs without the wheel
    // (or without metrics) add nothing.
    if (wheel.enabled && !wheel.samples.empty()) {
        const auto counter = [&w](const char* name, sim::Cycle ts,
                                  std::uint64_t value) {
            w.next() << R"(  {"name": ")" << name
                     << R"(", "cat": "wheel", "ph": "C", "ts": )" << ts
                     << R"(, "pid": 4, "args": {"value": )" << value << "}}";
        };
        std::uint64_t prev_pops = 0;
        std::uint64_t prev_inserts = 0;
        for (const sim::WheelStats::Sample& s : wheel.samples) {
            counter("armed", s.cycle, s.occupancy);
            counter("pops", s.cycle, s.pops - prev_pops);
            counter("inserts", s.cycle, s.inserts - prev_inserts);
            prev_pops = s.pops;
            prev_inserts = s.inserts;
        }
    }
    // Live-telemetry tracks: machine-wide occupancy and queue-depth gauges
    // at the sampler's cadence, plus the retired-instruction count as a
    // per-interval delta (the frames carry cumulative totals).  Only
    // simulated-state fields are drawn — host_ns and the wheel counters
    // stay out so traces remain comparable across wheel modes.
    if (telemetry.enabled && !telemetry.frames.empty()) {
        const auto counter = [&w](const char* name, sim::Cycle ts,
                                  std::uint64_t value) {
            w.next() << R"(  {"name": ")" << name
                     << R"(", "cat": "telemetry", "ph": "C", "ts": )" << ts
                     << R"(, "pid": 5, "args": {"value": )" << value << "}}";
        };
        std::uint64_t prev_retired = 0;
        for (const sim::TelemetryFrame& f : telemetry.frames) {
            counter("spus_running", f.cycle, f.pes_running);
            counter("threads_ready", f.cycle, f.threads_ready);
            counter("threads_waitdma", f.cycle, f.threads_waitdma);
            counter("frames_live", f.cycle, f.frames_live);
            counter("mfc_commands", f.cycle, f.mfc_commands);
            counter("dma_bytes_in_flight", f.cycle, f.dma_bytes);
            counter("mem_queue", f.cycle, f.mem_queue);
            counter("noc_pending", f.cycle, f.noc_pending);
            counter("instrs_retired/interval", f.cycle,
                    f.instrs_retired - prev_retired);
            prev_retired = f.instrs_retired;
        }
    }
    w.finish();
    return os.str();
}

}  // namespace dta::core
