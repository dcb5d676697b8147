// Unit tests for the Distributed Scheduler Element: round-robin placement,
// frame accounting, queueing, multi-node forwarding.
#include "sched/dse.hpp"

#include <gtest/gtest.h>

#include "sim/check.hpp"

namespace dta::sched {
namespace {

FallocCtx ctx_from(std::uint16_t node, std::uint16_t pe, std::uint8_t rd = 1) {
    return FallocCtx{node, pe, rd, 0};
}

TEST(Dse, RoundRobinPlacement) {
    const Topology topo{1, 4};
    Dse dse(topo, 0, /*frames_per_pe=*/2);
    std::vector<std::uint16_t> placed;
    for (int i = 0; i < 8; ++i) {
        dse.on_falloc_req(0, 0, ctx_from(0, 0));
        SchedMsg msg;
        ASSERT_TRUE(dse.pop_outgoing(msg));
        EXPECT_EQ(msg.kind, MsgKind::kFallocFwd);
        placed.push_back(msg.dst_pe);
    }
    // 4 PEs x 2 frames, round robin: 0,1,2,3,0,1,2,3.
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(placed[static_cast<std::size_t>(i)], i % 4);
    }
    EXPECT_EQ(dse.free_frames(0), 0u);
    EXPECT_EQ(dse.stats().granted_local, 8u);
}

TEST(Dse, QueuesWhenFullAndServesOnFree) {
    const Topology topo{1, 2};
    Dse dse(topo, 0, 1);
    dse.on_falloc_req(0, 0, ctx_from(0, 0));
    dse.on_falloc_req(0, 0, ctx_from(0, 1));
    dse.on_falloc_req(0, 0, ctx_from(0, 0));  // third: no frame anywhere
    SchedMsg msg;
    ASSERT_TRUE(dse.pop_outgoing(msg));
    ASSERT_TRUE(dse.pop_outgoing(msg));
    EXPECT_FALSE(dse.pop_outgoing(msg));
    EXPECT_EQ(dse.pending(), 1u);
    EXPECT_FALSE(dse.quiescent());

    dse.on_frame_free(1);  // PE 1 freed a frame
    ASSERT_TRUE(dse.pop_outgoing(msg));
    EXPECT_EQ(msg.dst_pe, 1);
    EXPECT_EQ(dse.pending(), 0u);
    EXPECT_EQ(dse.stats().queued, 1u);
}

TEST(Dse, FifoServiceOfParkedRequests) {
    const Topology topo{1, 1};
    Dse dse(topo, 0, 1);
    dse.on_falloc_req(10, 0, ctx_from(0, 0, 1));
    dse.on_falloc_req(20, 0, ctx_from(0, 0, 2));
    dse.on_falloc_req(30, 0, ctx_from(0, 0, 3));
    SchedMsg msg;
    ASSERT_TRUE(dse.pop_outgoing(msg));  // first grant
    EXPECT_EQ(msg.a, 10u);
    dse.on_frame_free(0);
    ASSERT_TRUE(dse.pop_outgoing(msg));
    EXPECT_EQ(msg.a, 20u);  // oldest parked request first
    dse.on_frame_free(0);
    ASSERT_TRUE(dse.pop_outgoing(msg));
    EXPECT_EQ(msg.a, 30u);
}

TEST(Dse, ForwardsToNeighbourNodeWhenFull) {
    const Topology topo{2, 1};
    Dse dse(topo, 0, 1);
    dse.on_falloc_req(0, 0, ctx_from(0, 0));
    SchedMsg msg;
    ASSERT_TRUE(dse.pop_outgoing(msg));  // local grant uses the only frame

    dse.on_falloc_req(0, 0, ctx_from(0, 0));
    ASSERT_TRUE(dse.pop_outgoing(msg));
    EXPECT_EQ(msg.kind, MsgKind::kFallocReq);
    EXPECT_TRUE(msg.dst_is_dse);
    EXPECT_EQ(msg.dst_node, 1);
    EXPECT_EQ(FallocCtx::unpack(msg.c).hops, 1);
    EXPECT_EQ(dse.stats().forwarded, 1u);
}

TEST(Dse, HopLimitedRequestParksInsteadOfCircling) {
    const Topology topo{2, 1};
    Dse dse(topo, 0, 1);
    dse.on_falloc_req(0, 0, ctx_from(0, 0));
    SchedMsg msg;
    ASSERT_TRUE(dse.pop_outgoing(msg));
    // A request that already visited the other node (hops = 1) must park.
    FallocCtx tired = ctx_from(1, 0);
    tired.hops = 1;
    dse.on_falloc_req(0, 0, tired);
    EXPECT_FALSE(dse.pop_outgoing(msg));
    EXPECT_EQ(dse.pending(), 1u);
}

TEST(Dse, StealFrameAccountsBootstrap) {
    const Topology topo{1, 2};
    Dse dse(topo, 0, 1);
    dse.steal_frame(0);
    EXPECT_EQ(dse.free_frames(0), 0u);
    dse.on_falloc_req(0, 0, ctx_from(0, 0));
    SchedMsg msg;
    ASSERT_TRUE(dse.pop_outgoing(msg));
    EXPECT_EQ(msg.dst_pe, 1);  // PE 0's frame is spoken for
    EXPECT_THROW(dse.steal_frame(0), sim::SimError);
}

TEST(Dse, GrantCarriesCodeAndSc) {
    const Topology topo{1, 1};
    Dse dse(topo, 0, 4);
    dse.on_falloc_req(/*code=*/5, /*sc=*/3, ctx_from(0, 0, 9));
    SchedMsg msg;
    ASSERT_TRUE(dse.pop_outgoing(msg));
    EXPECT_EQ(msg.a, 5u);
    EXPECT_EQ(msg.b, 3u);
    EXPECT_EQ(FallocCtx::unpack(msg.c).rd, 9);
}

// The horizon tick() returns: the run ends only once every horizon is
// kIdleForever, so an idle DSE must say so, and a grant waiting for the
// router keeps it one cycle out (sim/component.hpp, rule 1).
TEST(Dse, HorizonFollowsTheOutbox) {
    const Topology topo{1, 2};
    Dse dse(topo, 0, 1);
    EXPECT_EQ(dse.tick(0), sim::kIdleForever);

    noc::Packet pkt;
    pkt.kind = static_cast<std::uint16_t>(MsgKind::kFallocReq);
    pkt.c = ctx_from(0, 0).pack();
    dse.rx_port().push(pkt);
    EXPECT_EQ(dse.tick(1), 2u);  // the grant waits in the outbox
    EXPECT_EQ(dse.tick(2), 3u);  // still undrained: retry next cycle

    SchedMsg msg;
    ASSERT_TRUE(dse.pop_outgoing(msg));
    EXPECT_EQ(msg.kind, MsgKind::kFallocFwd);
    EXPECT_EQ(dse.tick(3), sim::kIdleForever);
    EXPECT_TRUE(dse.quiescent());
}

}  // namespace
}  // namespace dta::sched
