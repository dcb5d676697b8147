#include "mem/local_store.hpp"

#include <cstring>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace dta::mem {

namespace {

void save_ls_request(sim::StateSink& s, const LsRequest& r) {
    s.u64(r.id);
    s.flag(r.is_write);
    s.u32(r.addr);
    s.u32(r.size);
    sim::save_seq(s, r.data,
                  [](sim::StateSink& k, std::uint8_t b) { k.u8(b); });
    s.u64(r.meta);
}

void load_ls_request(sim::StateSource& s, LsRequest& r) {
    r.id = s.u64();
    r.is_write = s.flag();
    r.addr = s.u32();
    r.size = s.u32();
    sim::load_seq(s, r.data,
                  [](sim::StateSource& k, std::uint8_t& b) { b = k.u8(); });
    r.meta = s.u64();
}

}  // namespace

LocalStore::LocalStore(const LocalStoreConfig& cfg) : cfg_(cfg) {
    DTA_SIM_REQUIRE(cfg.size_bytes > 0, "local store size must be non-zero");
    DTA_SIM_REQUIRE(cfg.ports > 0, "local store needs at least one port");
    bytes_.assign(cfg.size_bytes, 0);
}

void LocalStore::bounds_check(sim::LsAddr addr, std::uint64_t size) const {
    DTA_SIM_REQUIRE(static_cast<std::uint64_t>(addr) + size <= cfg_.size_bytes,
                    "local-store access out of bounds: addr=" +
                        std::to_string(addr) + " size=" + std::to_string(size));
}

void LocalStore::write_bytes(sim::LsAddr addr,
                             std::span<const std::uint8_t> data) {
    bounds_check(addr, data.size());
    std::memcpy(bytes_.data() + addr, data.data(), data.size());
}

void LocalStore::read_bytes(sim::LsAddr addr,
                            std::span<std::uint8_t> out) const {
    bounds_check(addr, out.size());
    std::memcpy(out.data(), bytes_.data() + addr, out.size());
}

void LocalStore::write_u64(sim::LsAddr addr, std::uint64_t v) {
    std::uint8_t buf[8];
    std::memcpy(buf, &v, 8);
    write_bytes(addr, buf);
}

std::uint64_t LocalStore::read_u64(sim::LsAddr addr) const {
    std::uint8_t buf[8];
    read_bytes(addr, buf);
    std::uint64_t v;
    std::memcpy(&v, buf, 8);
    return v;
}

void LocalStore::write_u32(sim::LsAddr addr, std::uint32_t v) {
    std::uint8_t buf[4];
    std::memcpy(buf, &v, 4);
    write_bytes(addr, buf);
}

std::uint32_t LocalStore::read_u32(sim::LsAddr addr) const {
    std::uint8_t buf[4];
    read_bytes(addr, buf);
    std::uint32_t v;
    std::memcpy(&v, buf, 4);
    return v;
}

void LocalStore::enqueue(LsClient client, LsRequest req) {
    DTA_SIM_REQUIRE(req.size > 0 && req.size <= cfg_.max_request_bytes,
                    "local-store request size out of range");
    bounds_check(req.addr, req.size);
    if (req.is_write) {
        DTA_SIM_REQUIRE(req.data.size() == req.size,
                        "local-store write payload size mismatch");
    }
    queues_[static_cast<std::size_t>(client)].push_back(std::move(req));
}

void LocalStore::service(sim::Cycle now) {
    // Retire completed accesses (FIFO service + fixed latency => FIFO done).
    while (!in_flight_.empty() && in_flight_.front().done_at <= now) {
        InFlight fl = std::move(in_flight_.front());
        in_flight_.pop_front();
        LsResponse resp;
        resp.id = fl.req.id;
        resp.is_write = fl.req.is_write;
        resp.addr = fl.req.addr;
        resp.meta = fl.req.meta;
        if (fl.req.is_write) {
            write_bytes(fl.req.addr, fl.req.data);
        } else {
            resp.data.resize(fl.req.size);
            read_bytes(fl.req.addr, resp.data);
        }
        responses_[static_cast<std::size_t>(fl.client)].push_back(
            std::move(resp));
    }

    // Service up to `ports` queued requests, round-robin across clients.
    std::uint32_t used = 0;
    std::size_t tried = 0;
    while (used < cfg_.ports && tried < kNumLsClients) {
        auto& q = queues_[rr_next_];
        if (q.empty()) {
            rr_next_ = (rr_next_ + 1) % kNumLsClients;
            ++tried;
            continue;
        }
        in_flight_.push_back(InFlight{now + cfg_.latency,
                                      static_cast<LsClient>(rr_next_),
                                      std::move(q.front())});
        q.pop_front();
        ++served_[rr_next_];
        ++used;
        // After taking one request, move on so one client cannot hog all
        // ports while others wait.
        rr_next_ = (rr_next_ + 1) % kNumLsClients;
        tried = 0;
    }
    if (used == cfg_.ports) {
        for (const auto& q : queues_) {
            if (!q.empty()) {
                ++contended_;
                break;
            }
        }
    }
}

void LocalStore::save_state(sim::StateSink& s) const {
    s.blob(bytes_.data(), bytes_.size());
    for (const auto& q : queues_) {
        sim::save_seq(s, q, save_ls_request);
    }
    sim::save_seq(s, in_flight_, [](sim::StateSink& k, const InFlight& fl) {
        k.u64(fl.done_at);
        k.u8(static_cast<std::uint8_t>(fl.client));
        save_ls_request(k, fl.req);
    });
    for (const auto& q : responses_) {
        sim::save_seq(s, q, [](sim::StateSink& k, const LsResponse& r) {
            k.u64(r.id);
            k.flag(r.is_write);
            k.u32(r.addr);
            sim::save_seq(k, r.data,
                          [](sim::StateSink& j, std::uint8_t b) { j.u8(b); });
            k.u64(r.meta);
        });
    }
    s.u64(rr_next_);
    for (const std::uint64_t v : served_) {
        s.u64(v);
    }
    s.u64(contended_);
}

void LocalStore::load_state(sim::StateSource& s) {
    s.blob(bytes_.data(), bytes_.size());
    for (auto& q : queues_) {
        sim::load_seq(s, q, load_ls_request);
    }
    sim::load_seq(s, in_flight_, [](sim::StateSource& k, InFlight& fl) {
        fl.done_at = k.u64();
        fl.client = static_cast<LsClient>(k.u8());
        load_ls_request(k, fl.req);
    });
    for (auto& q : responses_) {
        sim::load_seq(s, q, [](sim::StateSource& k, LsResponse& r) {
            r.id = k.u64();
            r.is_write = k.flag();
            r.addr = k.u32();
            sim::load_seq(k, r.data,
                          [](sim::StateSource& j, std::uint8_t& b) {
                              b = j.u8();
                          });
            r.meta = k.u64();
        });
    }
    rr_next_ = s.u64();
    for (std::uint64_t& v : served_) {
        v = s.u64();
    }
    contended_ = s.u64();
}

bool LocalStore::quiescent() const {
    if (!in_flight_.empty() || any_queued()) {
        return false;
    }
    for (const auto& q : responses_) {
        if (!q.empty()) return false;
    }
    return true;
}

}  // namespace dta::mem
