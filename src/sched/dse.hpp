/// \file dse.hpp
/// \brief The Distributed Scheduler Element — one per node.
///
/// The DSE distributes FALLOC requests over the PEs of its node (round-
/// robin over PEs with free frames, which balances the workload as Section
/// 2 requires), forwards requests to a neighbouring node when its own node
/// is out of frames, and queues them when every node is full — the queueing
/// is what the paper's bitcnt benchmark observes as LSE stalls ("this
/// benchmark is forking a vast amount of threads in a small amount of time
/// and the LSE can't keep up").
///
/// Frame accounting is message-based: the count for a PE is decremented
/// when a FALLOC is forwarded there and incremented when the owning LSE's
/// kFrameFree notification arrives, so the view is conservative (a frame is
/// never granted twice) even though it can be momentarily stale.
#pragma once

#include <cstdint>
#include <vector>

#include "noc/packet.hpp"
#include "sched/messages.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/metrics.hpp"
#include "sim/port.hpp"
#include "sim/types.hpp"

namespace dta::sched {

/// Statistics of one DSE.
struct DseStats {
    std::uint64_t requests = 0;       ///< FALLOC requests received
    std::uint64_t granted_local = 0;  ///< placed on a PE of this node
    std::uint64_t forwarded = 0;      ///< sent to the next node's DSE
    std::uint64_t queued = 0;         ///< had to wait for a frame
    std::size_t peak_pending = 0;
};

/// The Distributed Scheduler Element of one node.
class Dse final : public sim::Component {
public:
    /// \p virtual_frames: when the LSEs hand out virtual frame pointers a
    /// FALLOC can never fail, so the DSE stops gating on frame counts and
    /// becomes a pure load balancer (round-robin over its PEs).
    Dse(const Topology& topo, std::uint16_t node, std::uint32_t frames_per_pe,
        bool virtual_frames = false);

    /// The fabric's DSE endpoint is bound here; tick() decodes and handles
    /// the delivered scheduler packets.
    [[nodiscard]] sim::Port<noc::Packet>& rx_port() { return rx_; }

    /// Drains the rx port: kFallocReq and kFrameFree packets delivered by
    /// the fabric this cycle are decoded and handled.  Returns the horizon:
    /// undrained outbox messages need a next-cycle retry; parked requests
    /// wait on an external kFrameFree.
    sim::Cycle tick(sim::Cycle now) override;

    /// Handles a kFallocReq (from a local LSE or a remote DSE); \p now
    /// stamps requests that park so their queue wait can be measured.
    /// \p code is the packet's full `a` word — code id plus the carried
    /// parent uid (see pack_carried_uid) — forwarded opaquely: the DSE's
    /// placement policy never looks at either half.
    void on_falloc_req(std::uint64_t code, std::uint32_t sc, FallocCtx ctx,
                       sim::Cycle now = 0);

    /// Handles a kFrameFree notification.
    void on_frame_free(sim::GlobalPeId pe, sim::Cycle now = 0);

    /// Used by the machine to account frames it seeds directly (the entry
    /// thread's bootstrap frame).
    void steal_frame(sim::GlobalPeId pe);

    /// Drains one outgoing message (kFallocFwd to a local LSE, or a
    /// kFallocReq forwarded to the next node's DSE).
    [[nodiscard]] bool pop_outgoing(SchedMsg& out);
    [[nodiscard]] bool has_outgoing() const { return !outbox_.empty(); }
    /// The outbox as a port, so the event-driven scheduler can bind a waker
    /// to it (the node router sleeps until a message shows up).
    [[nodiscard]] sim::Port<SchedMsg>& outbox_port() { return outbox_; }

    /// Requests parked waiting for a free frame.
    [[nodiscard]] std::size_t pending() const { return pending_.size(); }
    [[nodiscard]] bool quiescent() const override {
        return pending_.empty() && outbox_.empty() && rx_.empty();
    }

    [[nodiscard]] const DseStats& stats() const { return stats_; }

    /// Resolves the sched.dse_queue_wait histogram (cycles a FALLOC request
    /// spends parked waiting for a free frame); no-op when \p reg is
    /// disabled.
    void attach_metrics(sim::MetricsRegistry& reg) {
        queue_wait_ = reg.histogram("sched.dse_queue_wait");
    }
    [[nodiscard]] std::uint32_t free_frames(std::uint16_t local_pe) const {
        return free_[local_pe];
    }

    // --- checkpoint/restore -------------------------------------------------
    /// Serializes undrained rx packets, the frame ledger, parked requests,
    /// outgoing messages, the round-robin cursor, and statistics.
    void save_state(sim::StateSink& s) const override;
    void load_state(sim::StateSource& s) override;

private:
    struct Pending {
        std::uint64_t code = 0;  ///< code id | parent uid << 16, opaque here
        std::uint32_t sc = 0;
        FallocCtx ctx;
        sim::Cycle queued_at = 0;
    };

    /// Tries to place a request on a local PE; returns false if full.
    bool try_grant(const Pending& req);

    Topology topo_;
    std::uint16_t node_;
    bool virtual_frames_;
    sim::Port<noc::Packet> rx_;        ///< fabric DSE-endpoint deliveries
    std::vector<std::uint32_t> free_;  ///< free-frame count per local PE
    sim::Fifo<Pending> pending_;
    sim::Port<SchedMsg> outbox_;
    std::uint16_t rr_next_ = 0;
    DseStats stats_;
    sim::Histogram* queue_wait_ = nullptr;  ///< null when metrics are off
};

}  // namespace dta::sched
