/// \file link.hpp
/// \brief Inter-node point-to-point link (the slower between-node network of
///        the DTA clustering concept — Section 2: "communication between
///        nodes is slower as we rely on a more complex interconnection
///        network").
///
/// A Link is unidirectional; the machine instantiates one per direction.
/// Packets are serialised at the link bandwidth and arrive after the link
/// latency; ordering is FIFO.
#pragma once

#include <cstdint>

#include "noc/packet.hpp"
#include "sim/fifo.hpp"
#include "sim/port.hpp"
#include "sim/types.hpp"

namespace dta::noc {

/// Configuration of one inter-node link.
struct LinkConfig {
    std::uint32_t latency = 40;         ///< propagation delay, cycles
    std::uint32_t bytes_per_cycle = 16; ///< serialisation bandwidth
    std::uint32_t queue_depth = 32;     ///< sender-side buffer
};

/// A unidirectional inter-node channel, ticked by its router (not a
/// sim::Component).  A matured packet is pushed straight into the sink
/// port bound at machine construction: the next node's router arrivals.
class Link {
public:
    explicit Link(const LinkConfig& cfg);

    /// Points deliveries at \p sink (bound once, before the first tick).
    void bind_sink(sim::Port<Packet>* sink) { sink_ = sink; }

    [[nodiscard]] bool can_send() const {
        return queue_.size() < cfg_.queue_depth;
    }
    /// Returns false if the sender-side buffer is full.
    [[nodiscard]] bool try_send(Packet pkt);

    /// Pushes matured packets into the sink, then starts the next queued
    /// packet on the wire if it is free.
    void tick(sim::Cycle now);

    [[nodiscard]] bool quiescent() const {
        return queue_.empty() && in_transit_.empty();
    }

    /// Horizon: the serialiser starts the next queued packet when the wire
    /// frees; an in-flight packet matures at its deliver_at.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) const {
        sim::Cycle h = sim::kIdleForever;
        if (!in_transit_.empty()) {
            h = in_transit_.front().deliver_at > now
                    ? in_transit_.front().deliver_at
                    : now + 1;
        }
        if (!queue_.empty()) {
            const sim::Cycle start =
                wire_free_at_ > now + 1 ? wire_free_at_ : now + 1;
            h = start < h ? start : h;
        }
        return h;
    }

    [[nodiscard]] std::uint64_t packets_carried() const { return carried_; }
    [[nodiscard]] std::uint64_t bytes_carried() const { return bytes_; }
    [[nodiscard]] const LinkConfig& config() const { return cfg_; }

    // --- checkpoint/restore -------------------------------------------------
    /// Serializes the sender queue, on-wire packets, and statistics.
    void save_state(sim::StateSink& s) const;
    void load_state(sim::StateSource& s);

private:
    struct InTransit {
        sim::Cycle deliver_at = 0;
        Packet pkt;
    };

    LinkConfig cfg_;
    sim::Port<Packet>* sink_ = nullptr;
    sim::Fifo<Packet> queue_;
    sim::Fifo<InTransit> in_transit_;  ///< FIFO: serialised in order
    sim::Cycle wire_free_at_ = 0;
    std::uint64_t carried_ = 0;
    std::uint64_t bytes_ = 0;
};

}  // namespace dta::noc
