// Unit tests for the local store: 3-port arbitration, 6-cycle latency,
// client routing.
#include "mem/local_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

// Counts every allocation in this test program, so a test can check that a
// stretch of local-store traffic never reaches the allocator.
namespace {
std::size_t g_allocations = 0;
}  // namespace

// The replacements stay out of line: once inlined, GCC sees malloc() paired
// with operator delete, or a new-expression paired with free(), and warns
// (-Wmismatched-new-delete).
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

namespace dta::mem {
namespace {

LsRequest read_req(std::uint64_t id, sim::LsAddr addr, std::uint32_t size = 4) {
    LsRequest rq;
    rq.id = id;
    rq.addr = addr;
    rq.size = size;
    return rq;
}

TEST(LocalStore, FunctionalRoundTrip) {
    LocalStore ls(LocalStoreConfig{});
    ls.write_u32(100, 42);
    EXPECT_EQ(ls.read_u32(100), 42u);
    ls.write_u64(200, 0x1122334455667788ull);
    EXPECT_EQ(ls.read_u64(200), 0x1122334455667788ull);
}

TEST(LocalStore, BoundsChecked) {
    LocalStore ls(LocalStoreConfig{});
    EXPECT_THROW(ls.write_u32(256 * 1024 - 2, 1), sim::SimError);
    EXPECT_THROW(ls.enqueue(LsClient::kSpu, read_req(1, 256 * 1024)),
                 sim::SimError);
}

TEST(LocalStore, ReadCompletesAfterSixCycles) {
    LocalStore ls(LocalStoreConfig{});
    ls.write_u32(0x10, 7);
    ls.enqueue(LsClient::kSpu, read_req(1, 0x10));
    LsResponse resp;
    sim::Cycle done = 0;
    for (sim::Cycle now = 0; now < 20; ++now) {
        ls.tick(now);
        if (ls.pop_response(LsClient::kSpu, resp)) {
            done = now;
            break;
        }
    }
    EXPECT_EQ(done, 6u);  // serviced at 0, latency 6
    ASSERT_EQ(resp.data.size(), 4u);
    EXPECT_EQ(resp.data[0], 7u);
}

TEST(LocalStore, ResponsesRoutedPerClient) {
    LocalStore ls(LocalStoreConfig{});
    ls.enqueue(LsClient::kSpu, read_req(1, 0));
    ls.enqueue(LsClient::kMfc, read_req(2, 4));
    for (sim::Cycle now = 0; now < 10; ++now) {
        ls.tick(now);
    }
    LsResponse resp;
    ASSERT_TRUE(ls.pop_response(LsClient::kSpu, resp));
    EXPECT_EQ(resp.id, 1u);
    EXPECT_FALSE(ls.pop_response(LsClient::kSpu, resp));
    ASSERT_TRUE(ls.pop_response(LsClient::kMfc, resp));
    EXPECT_EQ(resp.id, 2u);
    EXPECT_TRUE(ls.quiescent());
}

TEST(LocalStore, ThreePortsPerCycle) {
    LocalStoreConfig cfg;
    cfg.ports = 3;
    LocalStore ls(cfg);
    // Four requests from one client: only three are serviced in cycle 0.
    for (int i = 0; i < 4; ++i) {
        ls.enqueue(LsClient::kSpu, read_req(static_cast<std::uint64_t>(i),
                                            static_cast<sim::LsAddr>(4 * i)));
    }
    std::vector<sim::Cycle> done;
    for (sim::Cycle now = 0; now < 20; ++now) {
        ls.tick(now);
        LsResponse resp;
        while (ls.pop_response(LsClient::kSpu, resp)) {
            done.push_back(now);
        }
    }
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(done[0], 6u);
    EXPECT_EQ(done[1], 6u);
    EXPECT_EQ(done[2], 6u);
    EXPECT_EQ(done[3], 7u);  // fourth waited one cycle for a port
    EXPECT_GE(ls.contended_cycles(), 1u);
}

TEST(LocalStore, RoundRobinIsFairAcrossClients) {
    LocalStoreConfig cfg;
    cfg.ports = 1;  // force contention
    LocalStore ls(cfg);
    for (int i = 0; i < 3; ++i) {
        ls.enqueue(LsClient::kSpu, read_req(10 + static_cast<std::uint64_t>(i), 0));
        ls.enqueue(LsClient::kLse, read_req(20 + static_cast<std::uint64_t>(i), 4));
        ls.enqueue(LsClient::kMfc, read_req(30 + static_cast<std::uint64_t>(i), 8));
    }
    // After 3 cycles of service each client must have progressed once.
    for (sim::Cycle now = 0; now < 3; ++now) {
        ls.tick(now);
    }
    EXPECT_EQ(ls.accesses(LsClient::kSpu), 1u);
    EXPECT_EQ(ls.accesses(LsClient::kLse), 1u);
    EXPECT_EQ(ls.accesses(LsClient::kMfc), 1u);
}

TEST(LocalStore, IdleTicksKeepRoundRobinState) {
    // Bursts from all three clients separated by idle cycles, one port.
    // The idle ticks take tick()'s early return; the order each burst is
    // served in depends on the round-robin cursor the previous burst left
    // behind, so any drift of that state across idle ticks changes it.
    LocalStoreConfig cfg;
    cfg.ports = 1;
    LocalStore ls(cfg);
    struct Done {
        LsClient client;
        std::uint64_t id;
        sim::Cycle at;
        bool operator==(const Done&) const = default;
    };
    std::vector<Done> done;
    const auto run_to = [&](sim::Cycle from, sim::Cycle to) {
        for (sim::Cycle now = from; now < to; ++now) {
            ls.tick(now);
            for (const LsClient c :
                 {LsClient::kSpu, LsClient::kLse, LsClient::kMfc}) {
                LsResponse r;
                while (ls.pop_response(c, r)) {
                    done.push_back({c, r.id, now});
                }
            }
        }
    };
    ls.enqueue(LsClient::kSpu, read_req(1, 0));  // served at 0: cursor -> LSE
    run_to(0, 10);
    ls.enqueue(LsClient::kMfc, read_req(30, 8));
    ls.enqueue(LsClient::kSpu, read_req(10, 0));
    ls.enqueue(LsClient::kLse, read_req(20, 4));
    run_to(10, 30);  // LSE, MFC, SPU: cursor ends on LSE again
    ls.enqueue(LsClient::kMfc, read_req(31, 8));
    ls.enqueue(LsClient::kMfc, read_req(32, 12));
    ls.enqueue(LsClient::kSpu, read_req(11, 0));
    run_to(30, 50);  // LSE empty -> MFC, SPU, MFC

    const std::vector<Done> want = {
        {LsClient::kSpu, 1, 6},   {LsClient::kLse, 20, 16},
        {LsClient::kMfc, 30, 17}, {LsClient::kSpu, 10, 18},
        {LsClient::kMfc, 31, 36}, {LsClient::kSpu, 11, 37},
        {LsClient::kMfc, 32, 38},
    };
    ASSERT_EQ(done.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(done[i] == want[i])
            << "completion " << i << ": client "
            << static_cast<int>(done[i].client) << " id " << done[i].id
            << " at " << done[i].at;
    }
    // Cycles 10, 11, 30 and 31 served one request with more still queued.
    EXPECT_EQ(ls.contended_cycles(), 4u);
    EXPECT_TRUE(ls.quiescent());
}

TEST(LocalStore, TimedWriteAppliesPayload) {
    LocalStore ls(LocalStoreConfig{});
    LsRequest rq;
    rq.id = 1;
    rq.is_write = true;
    rq.addr = 0x20;
    rq.size = 4;
    rq.data = {0xaa, 0xbb, 0xcc, 0xdd};
    ls.enqueue(LsClient::kLse, std::move(rq));
    for (sim::Cycle now = 0; now < 10; ++now) {
        ls.tick(now);
    }
    LsResponse resp;
    ASSERT_TRUE(ls.pop_response(LsClient::kLse, resp));
    EXPECT_TRUE(resp.is_write);
    EXPECT_EQ(ls.read_u32(0x20), 0xddccbbaau);
}

TEST(LocalStore, WritePayloadMismatchRejected) {
    LocalStore ls(LocalStoreConfig{});
    LsRequest rq;
    rq.is_write = true;
    rq.addr = 0;
    rq.size = 8;
    rq.data = {1};
    EXPECT_THROW(ls.enqueue(LsClient::kSpu, std::move(rq)), sim::SimError);
}

TEST(LocalStore, DmaLineSizedRequestsAccepted) {
    LocalStore ls(LocalStoreConfig{});
    LsRequest rq;
    rq.is_write = true;
    rq.addr = 1024;
    rq.size = 128;
    rq.data.assign(128, 0x5a);
    EXPECT_NO_THROW(ls.enqueue(LsClient::kMfc, std::move(rq)));
    for (sim::Cycle now = 0; now < 10; ++now) {
        ls.tick(now);
    }
    EXPECT_EQ(ls.read_u32(1024), 0x5a5a5a5au);
}

TEST(LocalStore, SmallAccessesDoNotAllocateOnceWarm) {
    // SPU-sized reads and LSE-sized writes from all three clients: once the
    // queues have reached their working depth, queueing, servicing and
    // retiring an access of up to 8 bytes never allocates.
    LocalStore ls(LocalStoreConfig{});
    LsResponse resp;
    const auto cycle = [&](sim::Cycle now) {
        ls.enqueue(LsClient::kSpu, read_req(now, 64, 4));
        LsRequest wr;
        wr.id = now;
        wr.is_write = true;
        wr.addr = 128;
        wr.size = 8;
        wr.data.resize(8);
        wr.data[0] = static_cast<std::uint8_t>(now);
        ls.enqueue(LsClient::kLse, std::move(wr));
        ls.enqueue(LsClient::kMfc, read_req(now, 256, 8));
        ls.tick(now);
        for (std::size_t c = 0; c < kNumLsClients; ++c) {
            while (ls.pop_response(static_cast<LsClient>(c), resp)) {
            }
        }
    };
    sim::Cycle now = 0;
    for (; now < 64; ++now) {
        cycle(now);
    }
    const std::size_t before = g_allocations;
    for (; now < 1064; ++now) {
        cycle(now);
    }
    EXPECT_EQ(g_allocations, before);
    EXPECT_EQ(ls.read_u64(128) & 0xff, (now - 1 - 6) & 0xff);
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
    std::string out;
    char buf[3];
    for (const std::uint8_t b : bytes) {
        std::snprintf(buf, sizeof buf, "%02x", b);
        out += buf;
    }
    return out;
}

/// A 160-byte store holding one of each queued payload kind: a pending
/// 8-byte SPU read response, an in-flight 128-byte MFC line write and a
/// queued 4-byte LSE write.
std::vector<std::uint8_t> save_mixed_payload_state() {
    LocalStoreConfig cfg;
    cfg.size_bytes = 160;
    LocalStore ls(cfg);
    ls.write_u64(0, 0x1122334455667788ull);
    LsRequest rd = read_req(1, 0, 8);
    rd.meta = 0x105;
    ls.enqueue(LsClient::kSpu, std::move(rd));
    for (sim::Cycle now = 0; now <= 6; ++now) {
        ls.tick(now);
    }
    LsRequest line;
    line.id = 2;
    line.is_write = true;
    line.addr = 32;
    line.size = 128;
    line.data.resize(128);
    for (std::uint32_t i = 0; i < 128; ++i) {
        line.data[i] = static_cast<std::uint8_t>(3 * i + 1);
    }
    line.meta = 7;
    ls.enqueue(LsClient::kMfc, std::move(line));
    ls.tick(7);
    LsRequest wr;
    wr.id = 3;
    wr.is_write = true;
    wr.addr = 8;
    wr.size = 4;
    wr.data = {0xaa, 0xbb, 0xcc, 0xdd};
    wr.meta = 9;
    ls.enqueue(LsClient::kLse, std::move(wr));
    sim::StateSink s;
    ls.save_state(s);
    return s.data();
}

TEST(LocalStore, SnapshotBytesArePinned) {
    // The .dtasnap layout of queued, in-flight and pending payloads: every
    // payload is a u64 length and its bytes, whatever its size.  The
    // expected bytes were written by the std::vector-payload
    // implementation, so a payload representation change cannot alter the
    // snapshot format unnoticed.
    const std::string expected =
        // bytes_: 160-byte blob
        "8877665544332211000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        // queues_[kSpu]: empty
        "0000000000000000"
        // queues_[kLse]: 1 x {id 3, write, addr 8, size 4, 4 bytes, meta 9}
        "0100000000000000030000000000000001080000000400000004000000000000"
        "00aabbccdd0900000000000000"
        // queues_[kMfc]: empty
        "0000000000000000"
        // in_flight_: 1 x {done 13, kMfc, id 2, write, addr 32, size 128,
        "01000000000000000d0000000000000002020000000000000001200000008000"
        "0000"
        //   128 bytes 3i+1, meta 7}
        "80000000000000000104070a0d101316191c1f2225282b2e3134373a3d404346"
        "494c4f5255585b5e6164676a6d707376797c7f8285888b8e9194979a9da0a3a6"
        "a9acafb2b5b8bbbec1c4c7cacdd0d3d6d9dcdfe2e5e8ebeef1f4f7fafd000306"
        "090c0f1215181b1e2124272a2d303336393c3f4245484b4e5154575a5d606366"
        "696c6f7275787b7e0700000000000000"
        // responses_[kSpu]: 1 x {id 1, read, addr 0, 8 bytes, meta 0x105}
        "0100000000000000010000000000000000000000000800000000000000887766"
        "55443322110501000000000000"
        // responses_[kLse], responses_[kMfc]: empty
        "00000000000000000000000000000000"
        // rr_next_ 0; served_ {1, 0, 1}; contended_ 0
        "0000000000000000010000000000000000000000000000000100000000000000"
        "0000000000000000";
    EXPECT_EQ(hex(save_mixed_payload_state()), expected);
}

TEST(LocalStore, SnapshotRoundTripKeepsPayloads) {
    const std::vector<std::uint8_t> saved = save_mixed_payload_state();
    LocalStoreConfig cfg;
    cfg.size_bytes = 160;
    LocalStore ls(cfg);
    sim::StateSource src(saved.data(), saved.size());
    ls.load_state(src);
    src.finish();
    sim::StateSink again;
    ls.save_state(again);
    EXPECT_EQ(again.data(), saved);
    // The restored queues still drain with their payloads intact.
    LsResponse resp;
    ASSERT_TRUE(ls.pop_response(LsClient::kSpu, resp));
    ASSERT_EQ(resp.data.size(), 8u);
    EXPECT_EQ(resp.data[0], 0x88u);
    EXPECT_EQ(resp.data[7], 0x11u);
    for (sim::Cycle now = 8; now < 20; ++now) {
        ls.tick(now);
    }
    EXPECT_EQ(ls.read_u32(8), 0xddccbbaau);
    EXPECT_EQ(ls.read_u32(32), 0x0a070401u);
    EXPECT_EQ(ls.read_u32(156), 0x7e7b7875u);
}

}  // namespace
}  // namespace dta::mem
