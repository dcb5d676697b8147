#include "stats/json_report.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>

namespace dta::stats {

namespace {

/// Fixed-point double rendering: JSON has no NaN/Inf and default ostream
/// formatting flips to scientific notation, which some strict parsers'
/// consumers dislike for metrics.
std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", v);
    return buf;
}

std::string indent_str(int n) { return std::string(static_cast<std::size_t>(n), ' '); }

void histogram_json(std::ostringstream& os, const sim::Histogram& h,
                    const std::string& pad) {
    os << "{\n"
       << pad << "  \"count\": " << h.count() << ",\n"
       << pad << "  \"sum\": " << h.sum() << ",\n"
       << pad << "  \"min\": " << (h.count() ? h.min() : 0) << ",\n"
       << pad << "  \"max\": " << h.max() << ",\n"
       << pad << "  \"mean\": " << num(h.mean()) << ",\n"
       << pad << "  \"p50\": " << num(h.percentile(50)) << ",\n"
       << pad << "  \"p90\": " << num(h.percentile(90)) << ",\n"
       << pad << "  \"p99\": " << num(h.percentile(99)) << ",\n"
       << pad << "  \"buckets\": {";
    bool first = true;
    for (std::size_t b = 0; b < sim::Histogram::kBuckets; ++b) {
        if (h.buckets()[b] == 0) {
            continue;
        }
        // Key = upper bound of the log2 bucket (0, 1, 3, 7, 15, ...).
        const std::uint64_t hi = b == 0 ? 0 : (b >= 64 ? ~0ull : (1ull << b) - 1);
        os << (first ? "" : ", ") << '"' << hi << "\": " << h.buckets()[b];
        first = false;
    }
    os << "}\n" << pad << "}";
}

void gauge_json(std::ostringstream& os, const sim::GaugeSeries& g,
                const std::string& pad) {
    os << "{\n"
       << pad << "  \"samples\": " << g.samples().size() << ",\n"
       << pad << "  \"last\": " << g.last() << ",\n"
       << pad << "  \"max\": " << g.max() << ",\n"
       << pad << "  \"series\": [";
    bool first = true;
    for (const sim::GaugeSample& s : g.samples()) {
        os << (first ? "" : ", ") << '[' << s.cycle << ", " << s.value << ']';
        first = false;
    }
    os << "]\n" << pad << "}";
}

}  // namespace

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string metrics_json(const sim::MetricsRegistry& reg, int indent) {
    const std::string pad = indent_str(indent);
    const std::string p1 = pad + "  ";
    const std::string p2 = pad + "    ";
    std::ostringstream os;
    os << "{\n" << p1 << "\"enabled\": " << (reg.enabled() ? "true" : "false")
       << ",\n";

    os << p1 << "\"counters\": {";
    bool first = true;
    for (const auto& [name, c] : reg.counters()) {
        os << (first ? "\n" : ",\n") << p2 << '"' << json_escape(name)
           << "\": " << c.value;
        first = false;
    }
    os << (first ? "" : "\n" + p1) << "},\n";

    os << p1 << "\"histograms\": {";
    first = true;
    for (const auto& [name, h] : reg.histograms()) {
        os << (first ? "\n" : ",\n") << p2 << '"' << json_escape(name)
           << "\": ";
        histogram_json(os, h, p2);
        first = false;
    }
    os << (first ? "" : "\n" + p1) << "},\n";

    os << p1 << "\"gauges\": {";
    first = true;
    for (const auto& [name, g] : reg.gauges()) {
        os << (first ? "\n" : ",\n") << p2 << '"' << json_escape(name)
           << "\": ";
        gauge_json(os, g, p2);
        first = false;
    }
    os << (first ? "" : "\n" + p1) << "}\n" << pad << "}";
    return os.str();
}

std::string run_report_json(const core::RunResult& r,
                            std::string_view benchmark,
                            bool include_host) {
    std::ostringstream os;
    os << "{\n";
    if (!benchmark.empty()) {
        os << "  \"benchmark\": \"" << json_escape(benchmark) << "\",\n";
    }
    os << "  \"cycles\": " << r.cycles << ",\n"
       << "  \"pes\": " << r.pes.size() << ",\n"
       << "  \"pipeline_usage\": " << num(r.pipeline_usage()) << ",\n"
       << "  \"slot_utilisation\": " << num(r.slot_utilisation()) << ",\n";

    const core::Breakdown bd = r.total_breakdown();
    os << "  \"breakdown\": {";
    for (std::size_t b = 0; b < core::kNumBuckets; ++b) {
        os << (b ? ", " : "") << '"'
           << core::bucket_name(static_cast<core::CycleBucket>(b))
           << "\": " << bd.cycles[b];
    }
    os << "},\n";

    const core::InstrStats is = r.total_instrs();
    os << "  \"instructions\": {\"total\": " << is.total()
       << ", \"loads\": " << is.loads() << ", \"stores\": " << is.stores()
       << ", \"reads\": " << is.reads() << ", \"writes\": " << is.writes()
       << ", \"ls_accesses\": " << is.ls_accesses()
       << ", \"dma_commands\": " << is.dma_commands() << "},\n";

    os << "  \"noc\": {\"packets\": " << r.noc.packets_delivered
       << ", \"bytes\": " << r.noc.bytes_transferred
       << ", \"bus_busy_cycles\": " << r.noc.bus_busy_cycles
       << ", \"inject_stalls\": " << r.noc.inject_stall_events << "},\n";

    os << "  \"memory\": {\"reads\": " << r.mem_reads
       << ", \"writes\": " << r.mem_writes
       << ", \"bytes_read\": " << r.mem_bytes_read
       << ", \"bytes_written\": " << r.mem_bytes_written
       << ", \"peak_queue\": " << r.mem_peak_queue << "},\n";

    os << "  \"dma\": {\"commands\": " << r.dma_commands
       << ", \"bytes\": " << r.dma_bytes
       << ", \"spans\": " << r.dma_spans.size() << "},\n";

    os << "  \"dse\": {\"requests\": " << r.dse_requests
       << ", \"queued\": " << r.dse_queued
       << ", \"peak_pending\": " << r.dse_peak_pending << "},\n";

    os << "  \"profile\": [";
    bool first = true;
    for (const core::CodeProfile& p : r.profile) {
        os << (first ? "\n" : ",\n") << "    {\"name\": \""
           << json_escape(p.name)
           << "\", \"threads_started\": " << p.threads_started
           << ", \"dispatches\": " << p.dispatches
           << ", \"pipeline_cycles\": " << p.pipeline_cycles
           << ", \"instructions\": " << p.instructions << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "],\n";

    // Host-side profile: present only when profiling ran, so prof-off
    // reports are byte-identical to pre-profiler ones (and a prof-on report
    // minus this section is byte-identical to a prof-off one — the
    // neutrality guarantee tests pin down).
    if (r.host_profile.enabled) {
        os << "  \"host_profile\": {\n    \"shards\": [";
        first = true;
        for (const sim::HostProfileShard& s : r.host_profile.shards) {
            os << (first ? "\n" : ",\n") << "      {\"name\": \""
               << json_escape(s.name) << "\", \"wall_ns\": " << s.wall_ns
               << ", \"coverage\": " << num(s.coverage()) << ", \"phases\": {";
            bool pfirst = true;
            for (std::size_t p = 0; p < sim::kNumProfPhases; ++p) {
                os << (pfirst ? "" : ", ") << '"'
                   << sim::prof_phase_name(static_cast<sim::ProfPhase>(p))
                   << "\": " << s.phase_ns[p];
                pfirst = false;
            }
            os << "}}";
            first = false;
        }
        os << (first ? "" : "\n    ") << "],\n    \"entries\": [";
        first = true;
        for (const sim::HostProfileEntry& e : r.host_profile.entries) {
            os << (first ? "\n" : ",\n") << "      {\"shard\": " << e.shard
               << ", \"component\": \"" << json_escape(e.component)
               << "\", \"phase\": \"" << sim::prof_phase_name(e.phase)
               << "\", \"ns\": " << e.ns << ", \"calls\": " << e.calls << "}";
            first = false;
        }
        os << (first ? "" : "\n    ") << "]\n  },\n";
    }

    // Live-telemetry timeline: present only when the sampler ran, so
    // telemetry-off reports are byte-identical to pre-telemetry ones (the
    // neutrality guarantee telemetry_neutrality_test pins down).  Only
    // simulated-state fields are serialised — host_ns and the wheel
    // counters, like RunResult::wheel itself, are host-rate and would break
    // byte-identity across wheel modes.  The stall record likewise carries
    // only its scalars: the component list and the replay hint (which
    // embeds a snapshot path) go to the diagnostic stream and NDJSON only.
    if (r.telemetry.enabled) {
        os << "  \"telemetry\": {\n    \"interval\": " << r.telemetry.interval
           << ",\n    \"captured\": " << r.telemetry.captured
           << ",\n    \"dropped\": " << r.telemetry.dropped
           << ",\n    \"frames\": [";
        first = true;
        for (const sim::TelemetryFrame& f : r.telemetry.frames) {
            os << (first ? "\n" : ",\n") << "      {\"cycle\": " << f.cycle
               << ", \"running\": " << f.pes_running
               << ", \"ready\": " << f.threads_ready
               << ", \"waitdma\": " << f.threads_waitdma
               << ", \"frames_live\": " << f.frames_live
               << ", \"mfc_commands\": " << f.mfc_commands
               << ", \"dma_bytes\": " << f.dma_bytes
               << ", \"mem_queue\": " << f.mem_queue
               << ", \"noc_pending\": " << f.noc_pending
               << ", \"instrs_retired\": " << f.instrs_retired << "}";
            first = false;
        }
        os << (first ? "" : "\n    ") << "],\n    \"stalled\": "
           << (r.telemetry.stalled ? "true" : "false");
        if (r.telemetry.stalled) {
            os << ",\n    \"stall\": {\"cycle\": " << r.telemetry.stall.cycle
               << ", \"samples\": " << r.telemetry.stall.samples
               << ", \"stalled_cycles\": " << r.telemetry.stall.stalled_cycles
               << "}";
        }
        os << "\n  },\n";
    }

    // Host-side scheduler counters: opt-in (dta_run/dta_bench trend
    // tracking) and, like host_profile, never part of any byte-identity
    // comparison — the scheduler's counters differ between the default
    // policy and the per-cycle reference on the same machine.
    if (include_host) {
        const sim::WheelStats& w = r.wheel;
        os << "  \"host\": {\"wheel\": {\"enabled\": "
           << (w.enabled ? "true" : "false") << ", \"pops\": " << w.pops
           << ", \"inserts\": " << w.inserts << ", \"wakes\": " << w.wakes
           << ", \"active_cycles\": " << w.active_cycles
           << ", \"dense_cycles\": " << w.dense_cycles
           << ", \"peak_occupancy\": " << w.peak_occupancy << "}},\n";
    }

    os << "  \"metrics\": " << metrics_json(r.metrics, 2) << "\n}\n";
    return os.str();
}

// ---------------------------------------------------------------------------
// Well-formedness checker
// ---------------------------------------------------------------------------

namespace {

/// Recursive-descent parser over a string_view; consumes from pos_.
class JsonChecker {
public:
    explicit JsonChecker(std::string_view text) : text_(text) {}

    bool run() {
        skip_ws();
        if (!value()) {
            return false;
        }
        skip_ws();
        return pos_ == text_.size() && depth_ok_;
    }

private:
    static constexpr int kMaxDepth = 128;

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }
    [[nodiscard]] bool eat(char c) {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }
    [[nodiscard]] char peek() const {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    bool literal(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word) {
            return false;
        }
        pos_ += word.size();
        return true;
    }

    bool string() {
        if (!eat('"')) {
            return false;
        }
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') {
                return true;
            }
            if (c == '\\') {
                if (pos_ >= text_.size()) {
                    return false;
                }
                const char e = text_[pos_++];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (pos_ >= text_.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(text_[pos_]))) {
                            return false;
                        }
                        ++pos_;
                    }
                } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                           e != 'f' && e != 'n' && e != 'r' && e != 't') {
                    return false;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false;
            }
        }
        return false;  // unterminated
    }

    bool number() {
        const std::size_t start = pos_;
        (void)eat('-');
        while (std::isdigit(static_cast<unsigned char>(peek()))) {
            ++pos_;
        }
        if (eat('.')) {
            while (std::isdigit(static_cast<unsigned char>(peek()))) {
                ++pos_;
            }
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') {
                ++pos_;
            }
            while (std::isdigit(static_cast<unsigned char>(peek()))) {
                ++pos_;
            }
        }
        return pos_ > start && text_[pos_ - 1] != '-';
    }

    bool value() {
        if (++depth_ > kMaxDepth) {
            depth_ok_ = false;
            return false;
        }
        skip_ws();
        bool ok = false;
        switch (peek()) {
            case '{': ok = object(); break;
            case '[': ok = array(); break;
            case '"': ok = string(); break;
            case 't': ok = literal("true"); break;
            case 'f': ok = literal("false"); break;
            case 'n': ok = literal("null"); break;
            default: ok = number(); break;
        }
        --depth_;
        return ok;
    }

    bool object() {
        if (!eat('{')) {
            return false;
        }
        skip_ws();
        if (eat('}')) {
            return true;
        }
        while (true) {
            skip_ws();
            if (!string()) {
                return false;
            }
            skip_ws();
            if (!eat(':') || !value()) {
                return false;
            }
            skip_ws();
            if (eat('}')) {
                return true;
            }
            if (!eat(',')) {
                return false;
            }
        }
    }

    bool array() {
        if (!eat('[')) {
            return false;
        }
        skip_ws();
        if (eat(']')) {
            return true;
        }
        while (true) {
            if (!value()) {
                return false;
            }
            skip_ws();
            if (eat(']')) {
                return true;
            }
            if (!eat(',')) {
                return false;
            }
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    bool depth_ok_ = true;
};

}  // namespace

bool validate_json(std::string_view text) { return JsonChecker(text).run(); }

}  // namespace dta::stats
