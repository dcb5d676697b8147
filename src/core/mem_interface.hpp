/// \file mem_interface.hpp
/// \brief The node-0 memory interface: a clocked component that decodes
///        fabric packets into memory-controller requests, drives the
///        controller, and turns completions back into response packets.
///
/// In the seed this logic lived as free-floating Machine methods
/// (handle_memif_packet / drain_memory_responses) plus a hand-rolled
/// context free-list.  It is now a Component with typed rx/tx ports: the
/// fabric's memory endpoint binds to rx_port(), the node-0 router drains
/// tx_port() into the fabric.
#pragma once

#include <cstdint>

#include "mem/main_memory.hpp"
#include "noc/packet.hpp"
#include "sched/messages.hpp"
#include "sim/component.hpp"
#include "sim/port.hpp"

namespace dta::core {

class MemInterface final : public sim::Component {
public:
    explicit MemInterface(mem::MainMemory& mem);

    MemInterface(const MemInterface&) = delete;
    MemInterface& operator=(const MemInterface&) = delete;

    /// The fabric's memory endpoint delivers here.
    [[nodiscard]] sim::Port<noc::Packet>& rx_port() { return rx_; }
    /// Response packets ready for injection (drained by the node-0 router).
    [[nodiscard]] sim::Port<noc::Packet>& tx_port() { return tx_; }

    /// Decode rx packets into requests, package the completions the
    /// controller retires, then start its queued requests.  Request decode
    /// runs before the controller starts requests, as in the seed's
    /// route-then-tick ordering, so enqueue-to-service timing is unchanged.
    /// Returns now + 1 while responses await injection, else the
    /// controller's horizon.
    sim::Cycle tick(sim::Cycle now) override;
    [[nodiscard]] bool quiescent() const override;

    /// Timed accesses in flight (for tests).
    [[nodiscard]] std::uint64_t outstanding() const {
        return ctxs_.outstanding();
    }

    // --- checkpoint/restore -------------------------------------------------
    /// Serializes outstanding access contexts and both packet ports (the
    /// memory controller itself is its own snapshot section).
    void save_state(sim::StateSink& s) const override;
    void load_state(sim::StateSource& s) override;

private:
    /// Bookkeeping for one outstanding timed memory access.
    struct MemCtx {
        sched::MsgKind resp_kind = sched::MsgKind::kInvalid;
        std::uint16_t node = 0;
        std::uint32_t ep = 0;
        std::uint64_t x = 0;  ///< rd (reads) or DMA line id
    };

    void decode(noc::Packet&& pkt);
    /// Packages every response the controller retires at \p now.
    void drain_responses(sim::Cycle now);

    mem::MainMemory& mem_;
    sim::Pool<MemCtx> ctxs_;
    sim::Port<noc::Packet> rx_;
    sim::Port<noc::Packet> tx_;
};

}  // namespace dta::core
