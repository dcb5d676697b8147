/// \file spans.hpp
/// \brief The benchmark's own tracer: one span around every call it makes
///        into a simulator layer.  Spans carry a name, a start, an end, the
///        index of the span that encloses them, and the id of the case or
///        job they belong to.  They are kept in memory and written as one
///        Chrome trace-event file (Perfetto opens it) when the run ends.
///
/// Durations are measured on every call, traced or not: the untraced run
/// needs them for its end-to-end metrics.  Only the span records are
/// skipped when tracing is off.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point t0,
                                            Clock::time_point t1) {
    return std::chrono::duration<double>(t1 - t0).count();
}

struct Span {
    std::string name;
    std::uint64_t id = 0;      ///< case or job id shared by its spans
    std::int64_t parent = -1;  ///< index of the enclosing span; -1 = root
    double start_s = 0.0;      ///< seconds since the recorder was made
    double end_s = 0.0;
};

class SpanRecorder {
public:
    explicit SpanRecorder(bool enabled)
        : enabled_(enabled), origin_(Clock::now()) {}

    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Runs \p f inside a span named \p name and returns its duration in
    /// seconds.  The span is closed even when \p f throws.
    template <typename F>
    double time(const char* name, std::uint64_t id, F&& f) {
        const std::int64_t idx = open(name, id);
        const Clock::time_point t0 = Clock::now();
        try {
            f();
        } catch (...) {
            close(idx, t0, Clock::now());
            throw;
        }
        const Clock::time_point t1 = Clock::now();
        close(idx, t0, t1);
        return seconds_between(t0, t1);
    }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// For every span named \p root_name that has children: the share of
    /// its duration its direct children cover.  What is left is the gaps
    /// between calls.
    [[nodiscard]] std::vector<double> child_coverage(
        const std::string& root_name) const {
        std::vector<double> covered(spans_.size(), 0.0);
        std::vector<bool> has_child(spans_.size(), false);
        for (const Span& s : spans_) {
            if (s.parent >= 0) {
                const auto p = static_cast<std::size_t>(s.parent);
                covered[p] += s.end_s - s.start_s;
                has_child[p] = true;
            }
        }
        std::vector<double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const double dur = spans_[i].end_s - spans_[i].start_s;
            if (spans_[i].name == root_name && has_child[i] && dur > 0.0) {
                out.push_back(covered[i] / dur);
            }
        }
        return out;
    }

    /// Writes every span as a Chrome "complete" event; false on I/O error.
    [[nodiscard]] bool write_chrome_trace(const std::string& path) const {
        std::ofstream out(path);
        out << "{\"traceEvents\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
                << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
                << s.start_s * 1e6 << ", \"dur\": "
                << (s.end_s - s.start_s) * 1e6 << ", \"args\": {\"id\": "
                << s.id << ", \"span\": " << i << ", \"parent\": " << s.parent
                << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

private:
    std::int64_t open(const char* name, std::uint64_t id) {
        if (!enabled_) {
            return -1;
        }
        const auto idx = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(
            Span{name, id, open_.empty() ? -1 : open_.back(), 0.0, 0.0});
        open_.push_back(idx);
        return idx;
    }

    void close(std::int64_t idx, Clock::time_point t0, Clock::time_point t1) {
        if (idx < 0) {
            return;
        }
        Span& s = spans_[static_cast<std::size_t>(idx)];
        s.start_s = seconds_between(origin_, t0);
        s.end_s = seconds_between(origin_, t1);
        open_.pop_back();
    }

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;  ///< indices of the open spans
};

}  // namespace perfbench
