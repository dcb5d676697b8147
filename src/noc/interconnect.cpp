#include "noc/interconnect.hpp"

#include <algorithm>
#include <utility>

#include "sim/audit.hpp"
#include "sim/check.hpp"

namespace dta::noc {

Interconnect::Interconnect(const InterconnectConfig& cfg,
                           std::uint32_t num_endpoints)
    : cfg_(cfg) {
    DTA_SIM_REQUIRE(cfg.num_buses > 0, "interconnect needs at least one bus");
    DTA_SIM_REQUIRE(cfg.bytes_per_cycle > 0, "bus bandwidth must be non-zero");
    DTA_SIM_REQUIRE(num_endpoints > 0, "interconnect needs endpoints");
    inject_.resize(num_endpoints);
    sinks_.assign(num_endpoints, nullptr);
    bus_free_at_.assign(cfg.num_buses, 0);
    set_name("noc");
}

void Interconnect::bind_endpoint(EndpointId dst, sim::Port<Packet>* sink) {
    DTA_CHECK(dst < sinks_.size());
    sinks_[dst] = sink;
}

std::uint32_t Interconnect::transfer_cycles(const Packet& pkt) const {
    const std::uint32_t sz = pkt.size_bytes == 0 ? 1 : pkt.size_bytes;
    return (sz + cfg_.bytes_per_cycle - 1) / cfg_.bytes_per_cycle;
}

bool Interconnect::can_inject(EndpointId src) const {
    DTA_CHECK(src < inject_.size());
    return inject_[src].size() < cfg_.inject_queue_depth;
}

bool Interconnect::try_inject(EndpointId src, Packet pkt, sim::Cycle now) {
    DTA_CHECK(src < inject_.size());
    DTA_CHECK_MSG(pkt.dst < sinks_.size(), "packet addressed off the fabric");
    if (inject_[src].size() >= cfg_.inject_queue_depth) {
        ++stats_.inject_stall_events;
        return false;
    }
    pkt.src = src;
    pkt.enq_at = now;
    inject_[src].push_back(std::move(pkt));
    ++inject_pending_;
    ++stats_.packets_injected;
    if (waker_ != nullptr) {
        waker_->wake(waker_comp_);
    }
    return true;
}

std::size_t Interconnect::pending() const {
    return in_transit_.size() + inject_pending_;
}

sim::Cycle Interconnect::tick(sim::Cycle now) {
    if (inject_pending_ == 0 && in_transit_.empty()) {
        return horizon(now);  // empty fabric: nothing to mature or grant
    }
    // 1. Mature in-flight packets into their destinations' sinks.
    while (!in_transit_.empty() && in_transit_.top().deliver_at <= now) {
        // priority_queue::top is const; copy (packets are small except DMA
        // lines, which are <= 128 bytes).
        InTransit it = in_transit_.top();
        in_transit_.pop();
        if (pkt_latency_ != nullptr) {
            pkt_latency_->record(now - it.pkt.enq_at);
        }
        sim::Port<Packet>* sink = sinks_[it.pkt.dst];
        DTA_CHECK_MSG(sink != nullptr,
                      "packet delivered to an unbound endpoint");
        sink->push(std::move(it.pkt));
        ++stats_.packets_delivered;
    }

    // 2. Grant free buses to waiting injection queues, round-robin.
    for (std::uint32_t bus = 0; bus < cfg_.num_buses; ++bus) {
        if (inject_pending_ == 0) {
            break;
        }
        if (bus_free_at_[bus] > now) {
            continue;
        }
        // Find the next endpoint with pending traffic.
        bool granted = false;
        for (std::size_t probe = 0; probe < inject_.size(); ++probe) {
            const std::size_t ep = (rr_next_ + probe) % inject_.size();
            if (inject_[ep].empty()) {
                continue;
            }
            Packet pkt = inject_[ep].take_front();
            --inject_pending_;
            const std::uint32_t occupancy = transfer_cycles(pkt);
            bus_free_at_[bus] = now + occupancy;
            stats_.bus_busy_cycles += occupancy;
            stats_.bytes_transferred += pkt.size_bytes;
            in_transit_.push(InTransit{now + occupancy + cfg_.hop_latency,
                                       seq_++, std::move(pkt)});
            rr_next_ = (ep + 1) % inject_.size();
            granted = true;
            break;
        }
        if (!granted) {
            break;  // nothing pending anywhere; remaining buses stay idle
        }
    }
    return horizon(now);
}

void Interconnect::audit(const sim::AuditCtx& ctx) const {
    std::size_t queued = 0;
    for (const auto& q : inject_) {
        queued += q.size();
        if (q.size() > cfg_.inject_queue_depth) {
            ctx.fail("packet-conservation",
                     "an injection queue holds " + std::to_string(q.size()) +
                         " packets, over the depth of " +
                         std::to_string(cfg_.inject_queue_depth));
        }
    }
    if (queued != inject_pending_) {
        ctx.fail("packet-conservation",
                 "inject_pending says " + std::to_string(inject_pending_) +
                     " but the injection queues hold " +
                     std::to_string(queued) + " packets");
    }
    // Conservation: a packet is counted delivered when it matures into its
    // sink, so injected must equal delivered plus what is still on
    // a bus or waiting for one.
    if (stats_.packets_injected !=
        stats_.packets_delivered + in_transit_.size() + inject_pending_) {
        ctx.fail("packet-conservation",
                 "injected " + std::to_string(stats_.packets_injected) +
                     " != delivered " +
                     std::to_string(stats_.packets_delivered) +
                     " + on-bus " + std::to_string(in_transit_.size()) +
                     " + queued " + std::to_string(inject_pending_));
    }
}

void Interconnect::save_state(sim::StateSink& s) const {
    for (const auto& q : inject_) {
        sim::save_seq(s, q, save_packet);
    }
    for (const sim::Cycle free_at : bus_free_at_) {
        s.u64(free_at);
    }
    // Drain a copy of the priority queue: entries come out in (deliver_at,
    // seq) order, which load_state re-pushes verbatim.
    auto pq = in_transit_;
    s.u64(pq.size());
    while (!pq.empty()) {
        const InTransit& it = pq.top();
        s.u64(it.deliver_at);
        s.u64(it.seq);
        save_packet(s, it.pkt);
        pq.pop();
    }
    s.u64(rr_next_);
    s.u64(seq_);
    s.u64(stats_.packets_injected);
    s.u64(stats_.packets_delivered);
    s.u64(stats_.bytes_transferred);
    s.u64(stats_.bus_busy_cycles);
    s.u64(stats_.inject_stall_events);
}

void Interconnect::load_state(sim::StateSource& s) {
    inject_pending_ = 0;
    for (auto& q : inject_) {
        sim::load_seq(s, q, load_packet);
        inject_pending_ += q.size();
    }
    for (sim::Cycle& free_at : bus_free_at_) {
        free_at = s.u64();
    }
    DTA_CHECK(in_transit_.empty());
    const std::uint64_t n = s.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        InTransit it;
        it.deliver_at = s.u64();
        it.seq = s.u64();
        load_packet(s, it.pkt);
        in_transit_.push(std::move(it));
    }
    rr_next_ = s.u64();
    seq_ = s.u64();
    stats_.packets_injected = s.u64();
    stats_.packets_delivered = s.u64();
    stats_.bytes_transferred = s.u64();
    stats_.bus_busy_cycles = s.u64();
    stats_.inject_stall_events = s.u64();
}

bool Interconnect::quiescent() const {
    return in_transit_.empty() && inject_pending_ == 0;
}

sim::Cycle Interconnect::horizon(sim::Cycle now) const {
    sim::Cycle h = sim::kIdleForever;
    if (!in_transit_.empty()) {
        h = std::min(h, std::max(in_transit_.top().deliver_at, now + 1));
    }
    if (inject_pending_ != 0) {
        sim::Cycle grant = sim::kIdleForever;
        for (const sim::Cycle free_at : bus_free_at_) {
            grant = std::min(grant, free_at);
        }
        h = std::min(h, std::max(grant, now + 1));
    }
    return h;
}

}  // namespace dta::noc
