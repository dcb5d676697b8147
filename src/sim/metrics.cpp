#include "sim/metrics.hpp"

#include <algorithm>
#include <bit>

#include "sim/snapshot.hpp"

namespace dta::sim {

std::size_t Histogram::bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
}

void Histogram::record(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

double Histogram::percentile(double p) const {
    if (count_ == 0) {
        return 0.0;
    }
    p = std::clamp(p, 0.0, 100.0);
    const double target = p / 100.0 * static_cast<double>(count_);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        if (buckets_[b] == 0) {
            continue;
        }
        const std::uint64_t prev = cum;
        cum += buckets_[b];
        if (static_cast<double>(cum) < target) {
            continue;
        }
        // The rank falls in bucket b: values in [2^(b-1), 2^b - 1] (bucket 0
        // holds only the value 0).  Interpolate linearly inside the bucket,
        // then clamp to the exact observed range.
        const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
        const double hi =
            b == 0 ? 0.0
                   : static_cast<double>(b >= 64 ? ~0ull
                                                 : (1ull << b) - 1);
        const double frac =
            buckets_[b] == 0
                ? 0.0
                : (target - static_cast<double>(prev)) /
                      static_cast<double>(buckets_[b]);
        const double est = lo + frac * (hi - lo);
        return std::clamp(est, static_cast<double>(min()),
                          static_cast<double>(max_));
    }
    return static_cast<double>(max_);
}

void Histogram::save_state(StateSink& s) const {
    for (std::size_t b = 0; b < kBuckets; ++b) {
        s.u64(buckets_[b]);
    }
    s.u64(count_);
    s.u64(sum_);
    s.u64(min_);
    s.u64(max_);
}

void Histogram::load_state(StateSource& s) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
        buckets_[b] = s.u64();
    }
    count_ = s.u64();
    sum_ = s.u64();
    min_ = s.u64();
    max_ = s.u64();
}

void GaugeSeries::save_state(StateSink& s) const {
    save_seq(s, samples_, [](StateSink& k, const GaugeSample& g) {
        k.u64(g.cycle);
        k.i64(g.value);
    });
    s.i64(max_);
}

void GaugeSeries::load_state(StateSource& s) {
    load_seq(s, samples_, [](StateSource& k, GaugeSample& g) {
        g.cycle = k.u64();
        g.value = k.i64();
    });
    max_ = s.i64();
}

void MetricsRegistry::save_state(StateSink& s) const {
    save_seq(s, counters_, [](StateSink& k, const auto& e) {
        k.str(e.first);
        k.u64(e.second.value);
    });
    s.u64(histograms_.size());
    for (const auto& [name, h] : histograms_) {
        s.str(name);
        h.save_state(s);
    }
    s.u64(gauges_.size());
    for (const auto& [name, g] : gauges_) {
        s.str(name);
        g.save_state(s);
    }
}

void MetricsRegistry::load_state(StateSource& s) {
    // In-place find-or-create: components resolved instrument pointers at
    // attach time, and node-based map storage keeps them valid.
    const std::uint64_t nc = s.u64();
    for (std::uint64_t i = 0; i < nc; ++i) {
        const std::string name = s.str();
        counters_[name].value = s.u64();
    }
    const std::uint64_t nh = s.u64();
    for (std::uint64_t i = 0; i < nh; ++i) {
        const std::string name = s.str();
        histograms_[name].load_state(s);
    }
    const std::uint64_t ng = s.u64();
    for (std::uint64_t i = 0; i < ng; ++i) {
        const std::string name = s.str();
        gauges_[name].load_state(s);
    }
}

Counter* MetricsRegistry::counter(const std::string& name) {
    if (!enabled_) {
        return nullptr;
    }
    return &counters_[name];
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
    if (!enabled_) {
        return nullptr;
    }
    return &histograms_[name];
}

GaugeSeries* MetricsRegistry::gauge(const std::string& name) {
    if (!enabled_) {
        return nullptr;
    }
    return &gauges_[name];
}

}  // namespace dta::sim
