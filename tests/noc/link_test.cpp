// Unit tests for the inter-node link.
#include "noc/link.hpp"

#include <gtest/gtest.h>

#include "sim/port.hpp"

namespace dta::noc {
namespace {

Packet mk(std::uint32_t size) {
    Packet p;
    p.size_bytes = size;
    return p;
}

TEST(Link, DeliversAfterSerialisationPlusLatency) {
    LinkConfig cfg;
    cfg.latency = 40;
    cfg.bytes_per_cycle = 16;
    Link link(cfg);
    sim::Port<Packet> rx;
    link.bind_sink(&rx);
    ASSERT_TRUE(link.try_send(mk(32)));  // 2 cycles wire + 40 latency
    Packet out;
    sim::Cycle got = 0;
    for (sim::Cycle now = 0; now < 100; ++now) {
        link.tick(now);
        if (rx.pop(out)) {
            got = now;
            break;
        }
    }
    EXPECT_EQ(got, 42u);
    EXPECT_TRUE(link.quiescent());
}

TEST(Link, FifoOrderPreserved) {
    Link link(LinkConfig{});
    sim::Port<Packet> rx;
    link.bind_sink(&rx);
    for (std::uint64_t i = 0; i < 5; ++i) {
        Packet p = mk(16);
        p.a = i;
        ASSERT_TRUE(link.try_send(std::move(p)));
    }
    std::vector<std::uint64_t> order;
    Packet out;
    for (sim::Cycle now = 0; now < 200 && order.size() < 5; ++now) {
        link.tick(now);
        while (rx.pop(out)) {
            order.push_back(out.a);
        }
    }
    ASSERT_EQ(order.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(order[i], i);
    }
}

TEST(Link, QueueDepthBackPressure) {
    LinkConfig cfg;
    cfg.queue_depth = 2;
    Link link(cfg);
    EXPECT_TRUE(link.try_send(mk(8)));
    EXPECT_TRUE(link.try_send(mk(8)));
    EXPECT_FALSE(link.can_send());
    EXPECT_FALSE(link.try_send(mk(8)));
}

TEST(Link, StatisticsCountTraffic) {
    Link link(LinkConfig{});
    sim::Port<Packet> rx;
    link.bind_sink(&rx);
    ASSERT_TRUE(link.try_send(mk(64)));
    ASSERT_TRUE(link.try_send(mk(16)));
    for (sim::Cycle now = 0; now < 200; ++now) {
        link.tick(now);
    }
    EXPECT_EQ(rx.size(), 2u);
    EXPECT_EQ(link.packets_carried(), 2u);
    EXPECT_EQ(link.bytes_carried(), 80u);
}

}  // namespace
}  // namespace dta::noc
