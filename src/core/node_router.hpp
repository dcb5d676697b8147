/// \file node_router.hpp
/// \brief Per-node injection engine: drains every local producer (link
///        arrivals, memory responses, DSE messages, PE traffic) into the
///        node's bus fabric, and pumps the outbound ring link.
///
/// This is the seed's Machine::injection_phase, one Component per node
/// with its wiring (fabric, DSE, local PEs, memory interface, ring link)
/// fixed at construction instead of re-derived from machine-global state
/// every cycle.  The ring link delivers into the next node's arrivals port.
/// Routers are registered last and in node order, preserving the seed's
/// same-cycle forwarding of link arrivals to higher-numbered nodes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/mem_interface.hpp"
#include "core/pe.hpp"
#include "core/topology.hpp"
#include "noc/interconnect.hpp"
#include "noc/link.hpp"
#include "sched/dse.hpp"
#include "sim/component.hpp"
#include "sim/events.hpp"
#include "sim/port.hpp"

namespace dta::core {

class NodeRouter final : public sim::Component {
public:
    /// \p memif is non-null only on the memory node; \p link is non-null
    /// only in multi-node machines (the node's *outbound* ring link).
    NodeRouter(std::uint16_t node, std::uint16_t num_nodes,
               FabricLayout layout, noc::Interconnect& fabric,
               sched::Dse& dse, std::vector<Pe*> local_pes,
               MemInterface* memif, noc::Link* link);

    NodeRouter(const NodeRouter&) = delete;
    NodeRouter& operator=(const NodeRouter&) = delete;

    /// The upstream node's link deliveries land here.
    [[nodiscard]] sim::Port<noc::Packet>& arrivals_port() { return arrivals_; }
    /// The fabric's bridge endpoint binds here (packets leaving the node).
    [[nodiscard]] sim::Port<noc::Packet>& bridge_out_port() {
        return bridge_out_;
    }
    /// Points kLinkHop emission (remote frame stores leaving the node) at
    /// \p log; \p ordinal identifies this router in the merged event log
    /// (total PE count + node id, keeping it disjoint from PE ordinals).
    void attach_events(sim::EventLog* log, std::uint32_t ordinal) {
        events_ = log;
        ordinal_ = ordinal;
    }

    sim::Cycle tick(sim::Cycle now) override;
    [[nodiscard]] bool quiescent() const override;

    // --- checkpoint/restore -------------------------------------------------
    /// Serializes the two packet ports; everything else is wiring.
    void save_state(sim::StateSink& s) const override;
    void load_state(sim::StateSource& s) override;

private:
    [[nodiscard]] bool inject(noc::EndpointId src, noc::Packet pkt,
                              sim::Cycle now);
    /// The horizon tick() returns, read after the link ticked.
    [[nodiscard]] sim::Cycle horizon(sim::Cycle now) const;

    std::uint16_t node_;
    std::uint16_t num_nodes_;
    FabricLayout layout_;
    noc::Interconnect& fabric_;
    sched::Dse& dse_;
    std::vector<Pe*> local_pes_;
    MemInterface* memif_;                      ///< memory node only
    noc::Link* link_;                          ///< multi-node only
    sim::EventLog* events_ = nullptr;  ///< optional, machine-owned
    std::uint32_t ordinal_ = 0;        ///< event ordinal (pes + node)

    sim::Port<noc::Packet> arrivals_;
    sim::Port<noc::Packet> bridge_out_;
};

}  // namespace dta::core
