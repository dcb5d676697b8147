// Unit tests for the 4-bus fabric: bandwidth accounting, arbitration
// fairness, back pressure, delivery latency, and allocation-free control
// traffic through the fabric and a ring link.
#include "noc/interconnect.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "noc/link.hpp"
#include "sim/check.hpp"
#include "sim/port.hpp"

// Counts every allocation in this test program, so a test can check that a
// stretch of packet traffic never reaches the allocator.
namespace {
std::size_t g_allocations = 0;
}  // namespace

// Out of line, as in local_store_test.cpp: once inlined, GCC sees malloc()
// paired with operator delete and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
    ++g_allocations;
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
        return p;
    }
    throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}

namespace dta::noc {
namespace {

InterconnectConfig table4() { return InterconnectConfig{}; }

/// A fabric whose every endpoint delivers into its own port, as the
/// Machine binds them.
struct Fabric {
    Fabric(const InterconnectConfig& cfg, std::uint32_t endpoints)
        : noc(cfg, endpoints), rx(endpoints) {
        for (EndpointId ep = 0; ep < endpoints; ++ep) {
            noc.bind_endpoint(ep, &rx[ep]);
        }
    }
    Interconnect noc;
    std::vector<sim::Port<Packet>> rx;
};

Packet mk(EndpointId dst, std::uint32_t size = 16) {
    Packet p;
    p.dst = dst;
    p.dst_final = dst;
    p.size_bytes = size;
    return p;
}

TEST(Interconnect, DeliversAfterTransferPlusHop) {
    Fabric f(table4(), 4);
    Interconnect& noc = f.noc;
    ASSERT_TRUE(noc.try_inject(0, mk(2, /*size=*/16), 0));
    // 16 bytes at 8 B/cycle = 2 cycles occupancy + 5 hop latency.
    Packet out;
    sim::Cycle got = 0;
    for (sim::Cycle now = 0; now < 20; ++now) {
        noc.tick(now);
        if (f.rx[2].pop(out)) {
            got = now;
            break;
        }
    }
    EXPECT_EQ(got, 7u);
    EXPECT_EQ(out.src, 0u);
    EXPECT_TRUE(noc.quiescent());
}

TEST(Interconnect, FourBusesCarryFourPacketsConcurrently) {
    Fabric f(table4(), 8);
    Interconnect& noc = f.noc;
    for (EndpointId src = 0; src < 4; ++src) {
        ASSERT_TRUE(noc.try_inject(src, mk(7, 16), 0));
    }
    std::vector<sim::Cycle> deliveries;
    Packet out;
    for (sim::Cycle now = 0; now < 20; ++now) {
        noc.tick(now);
        while (f.rx[7].pop(out)) {
            deliveries.push_back(now);
        }
    }
    ASSERT_EQ(deliveries.size(), 4u);
    // All four go out in parallel on separate buses: same delivery cycle.
    EXPECT_EQ(deliveries[0], deliveries[3]);
}

TEST(Interconnect, FifthPacketWaitsForAFreeBus) {
    Fabric f(table4(), 8);
    Interconnect& noc = f.noc;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(noc.try_inject(0, mk(7, 16), 0));
    }
    std::vector<sim::Cycle> deliveries;
    Packet out;
    for (sim::Cycle now = 0; now < 30; ++now) {
        noc.tick(now);
        while (f.rx[7].pop(out)) {
            deliveries.push_back(now);
        }
    }
    ASSERT_EQ(deliveries.size(), 5u);
    EXPECT_GT(deliveries[4], deliveries[0]);
}

TEST(Interconnect, InjectionQueueBackPressure) {
    InterconnectConfig cfg = table4();
    cfg.inject_queue_depth = 2;
    Interconnect noc(cfg, 2);
    EXPECT_TRUE(noc.try_inject(0, mk(1), 0));
    EXPECT_TRUE(noc.try_inject(0, mk(1), 0));
    EXPECT_FALSE(noc.can_inject(0));
    EXPECT_FALSE(noc.try_inject(0, mk(1), 0));
    EXPECT_EQ(noc.stats().inject_stall_events, 1u);
}

TEST(Interconnect, RoundRobinAcrossEndpoints) {
    InterconnectConfig cfg = table4();
    cfg.num_buses = 1;  // serialise everything through one bus
    Fabric f(cfg, 4);
    Interconnect& noc = f.noc;
    // Endpoints 0 and 1 each queue two packets; service must alternate.
    ASSERT_TRUE(noc.try_inject(0, mk(3, 8), 0));
    ASSERT_TRUE(noc.try_inject(0, mk(3, 8), 0));
    ASSERT_TRUE(noc.try_inject(1, mk(3, 8), 0));
    ASSERT_TRUE(noc.try_inject(1, mk(3, 8), 0));
    std::vector<EndpointId> srcs;
    Packet out;
    for (sim::Cycle now = 0; now < 30; ++now) {
        noc.tick(now);
        while (f.rx[3].pop(out)) {
            srcs.push_back(out.src);
        }
    }
    ASSERT_EQ(srcs.size(), 4u);
    EXPECT_EQ(srcs[0], 0u);
    EXPECT_EQ(srcs[1], 1u);
    EXPECT_EQ(srcs[2], 0u);
    EXPECT_EQ(srcs[3], 1u);
}

TEST(Interconnect, BandwidthAccountingMatchesBytes) {
    Fabric f(table4(), 2);
    Interconnect& noc = f.noc;
    ASSERT_TRUE(noc.try_inject(0, mk(1, 128), 0));
    for (sim::Cycle now = 0; now < 40; ++now) {
        noc.tick(now);
    }
    EXPECT_EQ(f.rx[1].size(), 1u);
    EXPECT_EQ(noc.stats().bytes_transferred, 128u);
    // 128 B / 8 B-per-cycle = 16 busy cycles.
    EXPECT_EQ(noc.stats().bus_busy_cycles, 16u);
    EXPECT_EQ(noc.stats().packets_injected, 1u);
    EXPECT_EQ(noc.stats().packets_delivered, 1u);
}

TEST(Interconnect, ConservationUnderLoad) {
    Fabric f(table4(), 6);
    Interconnect& noc = f.noc;
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    Packet out;
    for (sim::Cycle now = 0; now < 300; ++now) {
        if (now < 100) {
            for (EndpointId src = 0; src < 6; ++src) {
                if (noc.try_inject(src, mk((src + 1) % 6, 8), now)) {
                    ++injected;
                }
            }
        }
        noc.tick(now);
        for (EndpointId ep = 0; ep < 6; ++ep) {
            while (f.rx[ep].pop(out)) {
                ++delivered;
            }
        }
    }
    EXPECT_EQ(injected, delivered);
    EXPECT_TRUE(noc.quiescent());
}

TEST(Interconnect, ZeroSizePacketStillMoves) {
    Fabric f(table4(), 2);
    ASSERT_TRUE(f.noc.try_inject(0, mk(1, 0), 0));
    Packet out;
    bool got = false;
    for (sim::Cycle now = 0; now < 20 && !got; ++now) {
        f.noc.tick(now);
        got = f.rx[1].pop(out);
    }
    EXPECT_TRUE(got);
}

TEST(Interconnect, WarmControlTrafficDoesNotAllocate) {
    // Payload-free packets, one per cycle into the fabric and one onto a
    // ring link: once every queue has reached its working depth, injecting,
    // carrying and delivering a packet never allocates.
    Fabric f(table4(), 4);
    Link link(LinkConfig{});
    sim::Port<Packet> arrivals;
    link.bind_sink(&arrivals);
    std::uint64_t delivered = 0;
    Packet out;
    const auto cycle = [&](sim::Cycle now) {
        const auto src = static_cast<EndpointId>(now % 4);
        ASSERT_TRUE(f.noc.try_inject(src, mk((src + 1) % 4), now));
        ASSERT_TRUE(link.try_send(mk(0, 16)));
        f.noc.tick(now);
        link.tick(now);
        for (auto& rx : f.rx) {
            while (rx.pop(out)) {
                ++delivered;
            }
        }
        while (arrivals.pop(out)) {
            ++delivered;
        }
    };
    sim::Cycle now = 0;
    for (; now < 200; ++now) {
        cycle(now);
    }
    const std::size_t before = g_allocations;
    const std::uint64_t delivered_before = delivered;
    for (; now < 1200; ++now) {
        cycle(now);
    }
    EXPECT_EQ(g_allocations, before);
    EXPECT_EQ(delivered - delivered_before, 2000u);
}

TEST(Interconnect, DeliveryToAnUnboundEndpointIsAnInternalError) {
    Interconnect noc(table4(), 2);
    ASSERT_TRUE(noc.try_inject(0, mk(1, 8), 0));
    noc.tick(0);  // granted: one cycle on a bus, then the hop
    EXPECT_THROW((void)noc.tick(1 + table4().hop_latency), sim::CheckError);
}

}  // namespace
}  // namespace dta::noc
