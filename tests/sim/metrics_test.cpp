// Histogram bucketing / percentiles, gauge series, and registry gating.
#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include "sim/check.hpp"

namespace dta::sim {
namespace {

TEST(Histogram, BucketOfIsBitWidth) {
    EXPECT_EQ(Histogram::bucket_of(0), 0u);
    EXPECT_EQ(Histogram::bucket_of(1), 1u);
    EXPECT_EQ(Histogram::bucket_of(2), 2u);
    EXPECT_EQ(Histogram::bucket_of(3), 2u);
    EXPECT_EQ(Histogram::bucket_of(4), 3u);
    EXPECT_EQ(Histogram::bucket_of(7), 3u);
    EXPECT_EQ(Histogram::bucket_of(8), 4u);
    EXPECT_EQ(Histogram::bucket_of(~0ull), 64u);
}

TEST(Histogram, TracksExactScalars) {
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    h.record(10);
    h.record(20);
    h.record(300);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 330u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 300u);
    EXPECT_DOUBLE_EQ(h.mean(), 110.0);
}

TEST(Histogram, PercentilesAreMonotoneAndClamped) {
    Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v) {
        h.record(v);
    }
    const double p50 = h.percentile(50);
    const double p90 = h.percentile(90);
    const double p99 = h.percentile(99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // Estimates stay in the true range and p0/p100 are exact.
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
    // A log2 sketch of uniform 1..1000 puts the median within its bucket
    // (512..1023 covers the true 500); allow full-bucket error.
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 1000.0);
}

TEST(Histogram, SingleValuePercentilesAreExact) {
    Histogram h;
    h.record(42);
    EXPECT_DOUBLE_EQ(h.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 42.0);
}

TEST(GaugeSeries, KeepsOrderedSamplesAndMax) {
    GaugeSeries g;
    EXPECT_EQ(g.last(), 0);
    g.sample(0, 3);
    g.sample(256, 7);
    g.sample(512, 2);
    ASSERT_EQ(g.samples().size(), 3u);
    EXPECT_EQ(g.samples()[1].cycle, 256u);
    EXPECT_EQ(g.samples()[1].value, 7);
    EXPECT_EQ(g.max(), 7);
    EXPECT_EQ(g.last(), 2);
}

TEST(MetricsRegistry, DisabledReturnsNull) {
    MetricsRegistry reg;
    EXPECT_FALSE(reg.enabled());
    EXPECT_EQ(reg.counter("x"), nullptr);
    EXPECT_EQ(reg.histogram("x"), nullptr);
    EXPECT_EQ(reg.gauge("x"), nullptr);
    EXPECT_TRUE(reg.counters().empty());
}

TEST(MetricsRegistry, EnabledHandsOutStableNamedInstruments) {
    MetricsRegistry reg;
    reg.enable();
    Counter* c = reg.counter("dma.commands");
    ASSERT_NE(c, nullptr);
    c->add(3);
    // Same name resolves to the same instrument, also after other
    // insertions (node-based storage).
    (void)reg.counter("aaa");
    (void)reg.counter("zzz");
    EXPECT_EQ(reg.counter("dma.commands"), c);
    EXPECT_EQ(c->value, 3u);

    Histogram* h = reg.histogram("lat");
    ASSERT_NE(h, nullptr);
    h->record(17);
    EXPECT_EQ(reg.histograms().at("lat").count(), 1u);
}

TEST(MetricsRegistry, CopyCarriesData) {
    MetricsRegistry reg;
    reg.enable();
    reg.counter("n")->add(9);
    reg.gauge("g")->sample(128, 4);
    const MetricsRegistry copy = reg;  // the RunResult path
    EXPECT_EQ(copy.counters().at("n").value, 9u);
    EXPECT_EQ(copy.gauges().at("g").last(), 4);
}

}  // namespace
}  // namespace dta::sim
