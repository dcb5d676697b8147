#include "noc/link.hpp"

#include <utility>

#include "sim/check.hpp"

namespace dta::noc {

Link::Link(const LinkConfig& cfg) : cfg_(cfg) {
    DTA_SIM_REQUIRE(cfg.bytes_per_cycle > 0, "link bandwidth must be non-zero");
    DTA_SIM_REQUIRE(cfg.queue_depth > 0, "link queue must hold packets");
}

bool Link::try_send(Packet pkt) {
    if (!can_send()) {
        return false;
    }
    queue_.push_back(std::move(pkt));
    return true;
}

void Link::tick(sim::Cycle now) {
    while (!in_transit_.empty() && in_transit_.front().deliver_at <= now) {
        DTA_CHECK_MSG(sink_ != nullptr, "link delivers into an unbound sink");
        sink_->push(in_transit_.take_front().pkt);
    }
    if (queue_.empty() || wire_free_at_ > now) {
        return;
    }
    Packet pkt = queue_.take_front();
    const std::uint32_t sz = pkt.size_bytes == 0 ? 1 : pkt.size_bytes;
    const std::uint32_t occupancy =
        (sz + cfg_.bytes_per_cycle - 1) / cfg_.bytes_per_cycle;
    wire_free_at_ = now + occupancy;
    ++carried_;
    bytes_ += pkt.size_bytes;
    const sim::Cycle deliver_at = now + occupancy + cfg_.latency;
    in_transit_.push_back(InTransit{deliver_at, std::move(pkt)});
}

void Link::save_state(sim::StateSink& s) const {
    sim::save_seq(s, queue_, save_packet);
    sim::save_seq(s, in_transit_, [](sim::StateSink& k, const InTransit& it) {
        k.u64(it.deliver_at);
        save_packet(k, it.pkt);
    });
    s.u64(wire_free_at_);
    s.u64(carried_);
    s.u64(bytes_);
}

void Link::load_state(sim::StateSource& s) {
    sim::load_seq(s, queue_, load_packet);
    sim::load_seq(s, in_transit_, [](sim::StateSource& k, InTransit& it) {
        it.deliver_at = k.u64();
        load_packet(k, it.pkt);
    });
    wire_free_at_ = s.u64();
    carried_ = s.u64();
    bytes_ = s.u64();
}

}  // namespace dta::noc
