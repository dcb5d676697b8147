// Unit tests for the horizon contract (sim/component.hpp): the horizon must
// be the earliest cycle > now at which tick could change observable state
// assuming no new external input — kIdleForever when the part only waits on
// someone else.  The due-array scheduler relies on these answers being
// exact, so each state of the leaf timing models is pinned here: the
// Interconnect and MemInterface, scheduled components, through the horizon
// tick() returns; MainMemory, Link and Mfc, which their owners tick and then
// query, through next_activity().
#include <gtest/gtest.h>

#include "core/mem_interface.hpp"
#include "dma/mfc.hpp"
#include "mem/local_store.hpp"
#include "mem/main_memory.hpp"
#include "noc/interconnect.hpp"
#include "noc/link.hpp"
#include "sched/messages.hpp"
#include "sim/types.hpp"

namespace dta {
namespace {

// ---- MainMemory: Table 2 defaults (latency 150, 1 port, bank_busy 2) ------

TEST(MainMemoryHorizon, IdleIsForever) {
    mem::MainMemory m{mem::MainMemoryConfig{}};
    EXPECT_TRUE(m.quiescent());
    EXPECT_EQ(m.next_activity(0), sim::kIdleForever);
}

TEST(MainMemoryHorizon, FollowsRequestLifetime) {
    mem::MainMemory m{mem::MainMemoryConfig{}};

    mem::MemRequest req;
    req.id = 7;
    req.op = mem::MemOp::kRead;
    req.addr = 0x100;
    req.size = 4;
    m.enqueue(req);
    // Queued: the port is free, so the request starts on the next tick.
    EXPECT_EQ(m.next_activity(0), 1u);

    m.tick(1);  // starts; retires at 1 + latency
    EXPECT_EQ(m.next_activity(1), 1u + m.config().latency);

    m.tick(1 + m.config().latency);  // retires into the response queue
    EXPECT_EQ(m.next_activity(1 + m.config().latency),
              2u + m.config().latency);  // response awaits an external pop

    mem::MemResponse resp;
    ASSERT_TRUE(m.pop_response(resp));
    EXPECT_EQ(resp.id, 7u);
    EXPECT_EQ(m.next_activity(1 + m.config().latency), sim::kIdleForever);
    EXPECT_TRUE(m.quiescent());
}

TEST(MainMemoryHorizon, SecondRequestWaitsForBankBusy) {
    mem::MainMemory m{mem::MainMemoryConfig{}};
    for (std::uint64_t id = 0; id < 2; ++id) {
        mem::MemRequest req;
        req.id = id;
        req.addr = 0x200 + id * 64;
        m.enqueue(req);
    }
    m.tick(1);  // one port: only the first starts; port busy until 1+bank_busy
    // The queued second request starts when the port frees — before the
    // in-flight first retires (150 cycles out).
    EXPECT_EQ(m.next_activity(1), 1u + m.config().bank_busy);
}

// ---- MemInterface over MainMemory (Table 2 defaults) -----------------------

TEST(MemInterfaceHorizon, FollowsReadLifetime) {
    mem::MainMemory m{mem::MainMemoryConfig{}};
    core::MemInterface memif{m};
    EXPECT_EQ(memif.tick(0), sim::kIdleForever);

    noc::Packet req;
    req.kind = static_cast<std::uint16_t>(sched::MsgKind::kMemReadReq);
    req.a = 0x100;
    req.b = sched::GlobalEndpoint{0, 3}.pack();
    memif.rx_port().push(req);
    // Decoded and started this tick: memory's horizon is the retirement.
    const sim::Cycle done = 1 + m.config().latency;
    EXPECT_EQ(memif.tick(1), done);

    // Retired and packaged: the response waits for the router.
    EXPECT_EQ(memif.tick(done), done + 1);
    EXPECT_EQ(memif.tick(done + 1), done + 2);

    noc::Packet resp;
    ASSERT_TRUE(memif.tx_port().pop(resp));
    EXPECT_EQ(resp.kind,
              static_cast<std::uint16_t>(sched::MsgKind::kMemReadResp));
    EXPECT_EQ(memif.tick(done + 2), sim::kIdleForever);
    EXPECT_TRUE(memif.quiescent());
}

// ---- Interconnect: Table 4 defaults (4 buses x 8 B, hop latency 5) ---------

TEST(InterconnectHorizon, IdleIsForever) {
    noc::Interconnect ic{noc::InterconnectConfig{}, 2};
    EXPECT_TRUE(ic.quiescent());
    EXPECT_EQ(ic.tick(0), sim::kIdleForever);
}

TEST(InterconnectHorizon, FollowsPacketLifetime) {
    const noc::InterconnectConfig cfg;
    noc::Interconnect ic{cfg, 2};

    noc::Packet pkt;
    pkt.dst = 1;
    pkt.size_bytes = 8;  // occupies one bus for exactly one cycle
    ASSERT_TRUE(ic.try_inject(0, pkt, 0));
    // Pending injection: a free bus grants on the next tick, so delivery
    // is at 1 + occupancy(1) + hop_latency.
    const sim::Cycle deliver_at = 1 + 1 + cfg.hop_latency;
    EXPECT_EQ(ic.tick(1), deliver_at);

    // Matures into the (unbound) endpoint inbox, awaiting an external pop.
    EXPECT_EQ(ic.tick(deliver_at), deliver_at + 1);

    noc::Packet out;
    ASSERT_TRUE(ic.pop_delivered(1, out));
    EXPECT_EQ(ic.tick(deliver_at + 1), sim::kIdleForever);
    EXPECT_TRUE(ic.quiescent());
}

TEST(InterconnectHorizon, OccupancyScalesWithPacketSize) {
    const noc::InterconnectConfig cfg;
    noc::Interconnect ic{cfg, 2};
    noc::Packet pkt;
    pkt.dst = 1;
    pkt.size_bytes = 128;  // a DMA line: 16 cycles at 8 B/cycle
    ASSERT_TRUE(ic.try_inject(0, pkt, 0));
    EXPECT_EQ(ic.tick(1), 1u + 128 / cfg.bytes_per_cycle + cfg.hop_latency);
}

// ---- Link: inter-node defaults (latency 40, 16 B/cycle) --------------------

TEST(LinkHorizon, IdleIsForever) {
    noc::Link link{noc::LinkConfig{}};
    EXPECT_TRUE(link.quiescent());
    EXPECT_EQ(link.next_activity(0), sim::kIdleForever);
}

TEST(LinkHorizon, FollowsPacketLifetime) {
    const noc::LinkConfig cfg;
    noc::Link link{cfg};

    noc::Packet pkt;
    pkt.size_bytes = 16;  // serialises in one cycle
    ASSERT_TRUE(link.try_send(pkt));
    EXPECT_EQ(link.next_activity(0), 1u);  // wire free: starts next tick

    link.tick(1);  // on the wire: arrives at 1 + occupancy(1) + latency
    const sim::Cycle deliver_at = 1 + 1 + cfg.latency;
    EXPECT_EQ(link.next_activity(1), deliver_at);

    link.tick(deliver_at);  // matured, waiting for the router to pop it
    EXPECT_EQ(link.next_activity(deliver_at), deliver_at + 1);

    noc::Packet out;
    ASSERT_TRUE(link.pop_delivered(out));
    EXPECT_EQ(link.next_activity(deliver_at), sim::kIdleForever);
    EXPECT_TRUE(link.quiescent());
}

TEST(LinkHorizon, SecondPacketWaitsForWire) {
    const noc::LinkConfig cfg;
    noc::Link link{cfg};
    noc::Packet big;
    big.size_bytes = 64;  // 4 cycles on the wire
    ASSERT_TRUE(link.try_send(big));
    noc::Packet small;
    small.size_bytes = 8;
    ASSERT_TRUE(link.try_send(small));
    link.tick(1);  // big starts; wire busy until 5
    // Horizon is the wire freeing for the queued packet (5), not the big
    // packet's arrival (45).
    EXPECT_EQ(link.next_activity(1), 5u);
}

// ---- Mfc: Table 4 defaults (decode 30 cycles, 128 B lines) -----------------

TEST(MfcHorizon, FollowsCommandLifetime) {
    mem::LocalStore ls{mem::LocalStoreConfig{}};
    dma::Mfc mfc{dma::MfcConfig{}, ls};
    EXPECT_TRUE(mfc.quiescent());
    EXPECT_EQ(mfc.next_activity(0), sim::kIdleForever);

    dma::MfcCommand cmd;
    cmd.op = dma::MfcOp::kGet;
    cmd.tag = 3;
    cmd.mem_addr = 0x1000;
    cmd.ls_addr = 0x100;
    cmd.bytes = 16;  // one line
    ASSERT_TRUE(mfc.try_enqueue(cmd));
    // Queued: decode starts on the next tick.
    EXPECT_EQ(mfc.next_activity(0), 1u);

    ls.tick(1);
    mfc.tick(1);  // decode begins, finishing command_latency cycles later
    const sim::Cycle decoded_at = 1 + mfc.config().command_latency;
    EXPECT_EQ(mfc.next_activity(1), decoded_at);

    ls.tick(decoded_at);
    mfc.tick(decoded_at);  // decoded; the line request is ready for pickup
    EXPECT_EQ(mfc.next_activity(decoded_at), decoded_at + 1);

    dma::MfcLineRequest line;
    ASSERT_TRUE(mfc.pop_line_request(line));
    EXPECT_EQ(line.bytes, 16u);
    // The line is in flight: the MFC itself only waits on external data (the
    // NoC/memory horizon bounds the jump).
    EXPECT_EQ(mfc.next_activity(decoded_at), sim::kIdleForever);

    // Return the data; the LS write-back then completes the tag.  While the
    // completion sits unfetched the horizon must stay at now + 1.
    const std::vector<std::uint8_t> data(line.bytes, 0xAB);
    mfc.deliver_line_data(line.line_id, data);
    dma::MfcCompletion comp;
    bool completed = false;
    for (sim::Cycle now = decoded_at + 1; now < decoded_at + 32; ++now) {
        ls.tick(now);
        mfc.tick(now);
        // Until the LS write-back drains, the MFC waits on the local store
        // (the carrier component), so the horizon may be kIdleForever here;
        // once the completion is published it must be now + 1.
        const sim::Cycle h = mfc.next_activity(now);
        if (mfc.pop_completion(comp)) {
            EXPECT_EQ(h, now + 1);  // completion was awaiting the PE
            completed = true;
            break;
        }
    }
    ASSERT_TRUE(completed);
    EXPECT_EQ(comp.tag, 3u);
    EXPECT_TRUE(mfc.quiescent());
}

TEST(MfcHorizon, QueuedCommandBehindDecodeKeepsDecodeHorizon) {
    mem::LocalStore ls{mem::LocalStoreConfig{}};
    dma::Mfc mfc{dma::MfcConfig{}, ls};
    dma::MfcCommand cmd;
    cmd.op = dma::MfcOp::kGet;
    cmd.mem_addr = 0x1000;
    cmd.ls_addr = 0x100;
    cmd.bytes = 16;
    ASSERT_TRUE(mfc.try_enqueue(cmd));
    ASSERT_TRUE(mfc.try_enqueue(cmd));
    ls.tick(1);
    mfc.tick(1);  // first command decoding; second parked behind it
    // Nothing can happen before the decoder frees.
    EXPECT_EQ(mfc.next_activity(1), 1u + mfc.config().command_latency);
}

}  // namespace
}  // namespace dta
