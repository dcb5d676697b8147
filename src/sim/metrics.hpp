/// \file metrics.hpp
/// \brief Run-wide structured metrics: named counters, log2-bucketed latency
///        histograms, and sampled gauge time-series.
///
/// The simulator's scalar totals (RunResult counters) say *how much* work a
/// run did; this layer says *where the cycles went*: the distribution of DMA
/// tag latencies, how long threads sat ready before dispatch, how deep the
/// memory-controller queue ran over time.  One MetricsRegistry is owned by
/// the Machine and shared by every component; collection is off by default
/// and costs a single branch per would-be record when disabled.
///
/// Components resolve their instruments once (at attach time) and keep raw
/// pointers; the registry stores instruments in node-based maps so those
/// pointers stay valid for the registry's lifetime.  The registry is
/// copyable, which is how a finished run's metrics travel inside RunResult.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace dta::sim {

class StateSink;
class StateSource;

/// A monotonically increasing named count.
struct Counter {
    std::uint64_t value = 0;

    void add(std::uint64_t n = 1) { value += n; }
};

/// A log2-bucketed distribution of non-negative samples (latencies, sizes).
///
/// Bucket b collects the values whose bit width is b: bucket 0 holds only 0,
/// bucket 1 holds 1, bucket 2 holds 2..3, bucket 3 holds 4..7, and so on.
/// Exact count/sum/min/max are kept alongside, so means are exact and
/// percentile estimates are clamped to the true range.
class Histogram {
public:
    static constexpr std::size_t kBuckets = 65;  ///< bit widths 0..64

    void record(std::uint64_t v);

    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] std::uint64_t sum() const { return sum_; }
    /// Smallest / largest recorded value (0 when empty).
    [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    [[nodiscard]] std::uint64_t max() const { return max_; }
    [[nodiscard]] double mean() const {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

    /// Estimates the \p p-th percentile (p in [0, 100]) by linear
    /// interpolation inside the bucket where the rank falls; the estimate is
    /// clamped to [min, max], so p=0 and p=100 are exact.
    [[nodiscard]] double percentile(double p) const;

    [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const {
        return buckets_;
    }

    /// Bucket index a value lands in (its bit width).
    [[nodiscard]] static std::size_t bucket_of(std::uint64_t v);

    void save_state(StateSink& s) const;
    void load_state(StateSource& s);

private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ull;
    std::uint64_t max_ = 0;
};

/// One sampled point of a gauge.
struct GaugeSample {
    Cycle cycle = 0;
    std::int64_t value = 0;
};

/// A gauge sampled periodically into a time series (queue depths,
/// in-flight transfer counts).  The Machine's sampler drives \ref sample;
/// consumers render the series as Perfetto counter tracks.
class GaugeSeries {
public:
    void sample(Cycle cycle, std::int64_t value) {
        samples_.push_back(GaugeSample{cycle, value});
        if (value > max_) {
            max_ = value;
        }
    }

    [[nodiscard]] const std::vector<GaugeSample>& samples() const {
        return samples_;
    }
    [[nodiscard]] std::int64_t max() const { return max_; }
    [[nodiscard]] std::int64_t last() const {
        return samples_.empty() ? 0 : samples_.back().value;
    }

    void save_state(StateSink& s) const;
    void load_state(StateSource& s);

private:
    std::vector<GaugeSample> samples_;
    std::int64_t max_ = 0;
};

/// The per-machine registry of named instruments.
///
/// Disabled by default: every accessor returns nullptr, so instrumented
/// components skip their record calls with one pointer test.  Enable before
/// components attach (the Machine does this from its constructor when
/// MachineConfig::collect_metrics is set).
class MetricsRegistry {
public:
    void enable(bool on = true) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Finds or creates an instrument; returns nullptr while disabled.
    /// Returned pointers stay valid for the registry's lifetime (node-based
    /// storage), but do not survive copying the registry.
    [[nodiscard]] Counter* counter(const std::string& name);
    [[nodiscard]] Histogram* histogram(const std::string& name);
    [[nodiscard]] GaugeSeries* gauge(const std::string& name);

    // Sorted, deterministic iteration for exporters.
    [[nodiscard]] const std::map<std::string, Counter>& counters() const {
        return counters_;
    }
    [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
        return histograms_;
    }
    [[nodiscard]] const std::map<std::string, GaugeSeries>& gauges() const {
        return gauges_;
    }

    /// Serialize every instrument (sorted map order keeps it canonical).
    void save_state(StateSink& s) const;
    /// Loads instruments *in place* (find-or-create, never clears the
    /// maps), so pointers components resolved at attach time stay valid.
    void load_state(StateSource& s);

private:
    bool enabled_ = false;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, GaugeSeries> gauges_;
};

}  // namespace dta::sim
