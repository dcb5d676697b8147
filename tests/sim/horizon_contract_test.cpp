// Property test of the horizon contract (sim/component.hpp): the
// event-driven scheduler visits a component only at the cycles it promises
// (the horizon its tick returns; for the parts an owner ticks, their
// next_activity()), so a horizon that *under-promises* (claims idleness
// past a cycle where tick() would have changed state) silently corrupts an
// event-driven run.  For every fuzz machine shape we drive each leaf timing
// model twice with an identical randomised stimulus schedule:
//
//   * densely  — tick every cycle, drain outputs as they appear;
//   * lazily   — tick only at the promised horizon (skip() over the slept
//                span first, exactly like sim::WheelScheduler), re-arming
//                from the horizon after every visit and waking on input.
//
// The observable output logs (cycle-stamped pops and admission refusals)
// must be byte-identical.  A too-late horizon delays or drops an output and
// the logs diverge; a too-early horizon only costs extra visits, which the
// contract permits.  This is the per-component analogue of the whole-machine
// differentials against the per-cycle reference in
// wheel_dense_determinism_test and tools/dta_fuzz.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dma/mfc.hpp"
#include "mem/local_store.hpp"
#include "mem/main_memory.hpp"
#include "noc/interconnect.hpp"
#include "noc/link.hpp"
#include "sim/port.hpp"

namespace dta {
namespace {

/// Deterministic 64-bit LCG (same constants as the microbench driver).
class Rng {
 public:
    explicit Rng(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull) {}
    std::uint64_t next() {
        state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
        return state_ >> 16;
    }
    /// Uniform in [0, bound).
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
    std::uint64_t state_;
};

/// Arrival gap with the mix the machine produces: mostly back-to-back
/// bursts, some short pauses, an occasional idle span longer than any
/// single-component latency (the regime where lazy skipping actually jumps).
sim::Cycle next_gap(Rng& rng) {
    const std::uint64_t r = rng.below(100);
    if (r < 60) {
        return rng.below(3);  // burst: 0-2 cycles apart
    }
    if (r < 90) {
        return 3 + rng.below(48);
    }
    return 400 + rng.below(400);  // longer than mem latency + decode
}

/// Drives one harness both ways and requires byte-identical output logs.
/// A harness wraps one leaf model (or a cooperating pair) and provides:
///   deliver(c)        inject stimulus scheduled for cycle c (pre-tick);
///                     returns true when anything arrived (a wake edge)
///   tick_all(c) / skip_all(from, to) / horizon(c) / quiescent()
///   drain(c, log)     pop every output, appending cycle-stamped records
template <typename Harness>
void expect_horizon_exact(std::uint64_t seed, sim::Cycle n_cycles,
                          const typename Harness::Config& cfg) {
    Harness dense(cfg, seed);
    std::string dense_log;
    for (sim::Cycle c = 1; c <= n_cycles; ++c) {
        (void)dense.deliver(c, dense_log);
        dense.tick_all(c);
        dense.drain(c, dense_log);
    }
    EXPECT_TRUE(dense.quiescent()) << "stimulus did not drain densely";

    Harness lazy(cfg, seed);
    std::string lazy_log;
    sim::Cycle last = 0;
    sim::Cycle due = sim::kIdleForever;
    std::uint64_t visits = 0;
    for (sim::Cycle c = 1; c <= n_cycles; ++c) {
        if (lazy.deliver(c, lazy_log)) {
            due = std::min(due, c);  // wake: input lands before tick(c)
        }
        if (c < due) {
            continue;  // the component promised nothing happens here
        }
        if (last + 1 < c) {
            lazy.skip_all(last + 1, c);  // account the slept span [last+1, c)
        }
        lazy.tick_all(c);
        ++visits;
        lazy.drain(c, lazy_log);
        due = lazy.horizon(c);
        ASSERT_GT(due, c) << "horizon must be strictly in the future";
        last = c;
    }
    EXPECT_TRUE(lazy.quiescent()) << "stimulus did not drain lazily";
    EXPECT_EQ(dense_log, lazy_log)
        << "lazy (horizon-driven) run diverged from the dense reference: "
        << "some horizon under-promised";
    // The harness configs all contain idle spans, so a contract-honouring
    // model must actually skip work (guards against kludging the property
    // by always answering now + 1 *and* proves the test exercised skips).
    EXPECT_LT(visits, n_cycles);
}

void append(std::string& log, sim::Cycle c, const char* what,
            std::uint64_t x) {
    log += std::to_string(c);
    log += what;
    log += std::to_string(x);
    log += ';';
}

// ---- MainMemory ------------------------------------------------------------

class MemHarness {
 public:
    using Config = mem::MainMemoryConfig;

    MemHarness(const Config& cfg, std::uint64_t seed) : mem_(cfg) {
        Rng rng(seed);
        sim::Cycle at = 1;
        for (std::uint64_t id = 0; id < 160; ++id) {
            mem::MemRequest rq;
            rq.id = id;
            rq.op = rng.below(4) == 0 ? mem::MemOp::kWrite : mem::MemOp::kRead;
            rq.addr = rng.below(1 << 20) * 8;
            rq.size = static_cast<std::uint32_t>(
                8u << rng.below(4));  // 8..64 B, within max_request_bytes
            if (rq.op == mem::MemOp::kWrite) {
                rq.data.assign(rq.size, static_cast<std::uint8_t>(id));
            }
            schedule_.emplace_back(at, std::move(rq));
            at += next_gap(rng);
        }
    }

    bool deliver(sim::Cycle c, std::string&) {
        bool any = false;
        while (cursor_ < schedule_.size() && schedule_[cursor_].first == c) {
            mem_.enqueue(schedule_[cursor_].second);
            ++cursor_;
            any = true;
        }
        return any;
    }
    void tick_all(sim::Cycle c) { mem_.tick(c); }
    // MainMemory is event-driven (its owner ticks it): no per-cycle
    // accounting, so a skipped span needs no replay.
    void skip_all(sim::Cycle, sim::Cycle) {}
    [[nodiscard]] sim::Cycle horizon(sim::Cycle c) const {
        return mem_.next_activity(c);
    }
    [[nodiscard]] bool quiescent() const { return mem_.quiescent(); }
    void drain(sim::Cycle c, std::string& log) {
        mem::MemResponse resp;
        while (mem_.pop_response(c, resp)) {
            append(log, c, ":mem:", resp.id);
        }
    }

 private:
    mem::MainMemory mem_;
    std::vector<std::pair<sim::Cycle, mem::MemRequest>> schedule_;
    std::size_t cursor_ = 0;
};

TEST(HorizonContract, MainMemoryAcrossFuzzShapes) {
    for (const std::uint32_t latency : {1u, 40u, 150u, 300u}) {
        for (const std::uint32_t ports : {1u, 2u}) {
            for (const std::uint32_t bank_busy : {1u, 2u, 8u}) {
                mem::MainMemoryConfig cfg;
                cfg.latency = latency;
                cfg.ports = ports;
                cfg.bank_busy = bank_busy;
                SCOPED_TRACE("latency=" + std::to_string(latency) +
                             " ports=" + std::to_string(ports) +
                             " bank_busy=" + std::to_string(bank_busy));
                for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                    expect_horizon_exact<MemHarness>(seed, 40'000, cfg);
                }
            }
        }
    }
}

// ---- Interconnect ----------------------------------------------------------

class IcHarness {
 public:
    using Config = noc::InterconnectConfig;
    static constexpr noc::EndpointId kEndpoints = 5;

    IcHarness(const Config& cfg, std::uint64_t seed)
        : ic_(cfg, kEndpoints) {
        // Endpoints deliver into ports, as the Machine binds them.
        for (noc::EndpointId ep = 0; ep < kEndpoints; ++ep) {
            ic_.bind_endpoint(ep, &rx_[ep]);
        }
        Rng rng(seed);
        sim::Cycle at = 1;
        for (std::uint64_t seq = 0; seq < 200; ++seq) {
            noc::Packet p;
            p.src = static_cast<noc::EndpointId>(rng.below(kEndpoints));
            p.dst = static_cast<noc::EndpointId>(rng.below(kEndpoints));
            p.dst_final = p.dst;
            const std::uint32_t sizes[] = {8, 16, 64, 128};
            p.size_bytes = sizes[rng.below(4)];
            p.a = seq;
            schedule_.emplace_back(at, std::move(p));
            at += next_gap(rng);
        }
    }

    bool deliver(sim::Cycle c, std::string& log) {
        bool any = false;
        while (cursor_ < schedule_.size() && schedule_[cursor_].first == c) {
            noc::Packet& p = schedule_[cursor_].second;
            // Admission is part of the observable record: a refusal in one
            // run but not the other is itself a divergence.
            if (!ic_.try_inject(p.src, p, c)) {
                append(log, c, ":rej:", p.a);
            }
            ++cursor_;
            any = true;
        }
        return any;
    }
    void tick_all(sim::Cycle c) { horizon_ = ic_.tick(c); }
    void skip_all(sim::Cycle from, sim::Cycle to) { ic_.skip(from, to); }
    [[nodiscard]] sim::Cycle horizon(sim::Cycle) const { return horizon_; }
    [[nodiscard]] bool quiescent() const { return ic_.quiescent(); }
    void drain(sim::Cycle c, std::string& log) {
        noc::Packet out;
        for (noc::EndpointId ep = 0; ep < kEndpoints; ++ep) {
            while (rx_[ep].pop(out)) {
                append(log, c, ":pkt:", out.a * 100 + ep);
            }
        }
    }

 private:
    noc::Interconnect ic_;
    std::array<sim::Port<noc::Packet>, kEndpoints> rx_;
    sim::Cycle horizon_ = sim::kIdleForever;
    std::vector<std::pair<sim::Cycle, noc::Packet>> schedule_;
    std::size_t cursor_ = 0;
};

TEST(HorizonContract, InterconnectAcrossFuzzShapes) {
    for (const std::uint32_t buses : {1u, 4u}) {
        for (const std::uint32_t hop : {1u, 5u, 20u}) {
            for (const std::uint32_t depth : {2u, 16u}) {
                noc::InterconnectConfig cfg;
                cfg.num_buses = buses;
                cfg.hop_latency = hop;
                cfg.inject_queue_depth = depth;
                SCOPED_TRACE("buses=" + std::to_string(buses) +
                             " hop=" + std::to_string(hop) +
                             " depth=" + std::to_string(depth));
                for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                    expect_horizon_exact<IcHarness>(seed, 40'000, cfg);
                }
            }
        }
    }
}

// ---- Link ------------------------------------------------------------------

class LinkHarness {
 public:
    using Config = noc::LinkConfig;

    LinkHarness(const Config& cfg, std::uint64_t seed) : link_(cfg) {
        link_.bind_sink(&rx_);  // as the Machine binds the next router
        Rng rng(seed);
        sim::Cycle at = 1;
        for (std::uint64_t seq = 0; seq < 200; ++seq) {
            noc::Packet p;
            const std::uint32_t sizes[] = {8, 16, 64, 128};
            p.size_bytes = sizes[rng.below(4)];
            p.a = seq;
            schedule_.emplace_back(at, std::move(p));
            at += next_gap(rng);
        }
    }

    bool deliver(sim::Cycle c, std::string& log) {
        bool any = false;
        while (cursor_ < schedule_.size() && schedule_[cursor_].first == c) {
            noc::Packet& p = schedule_[cursor_].second;
            if (!link_.try_send(p)) {
                append(log, c, ":rej:", p.a);
            }
            ++cursor_;
            any = true;
        }
        return any;
    }
    void tick_all(sim::Cycle c) { link_.tick(c); }
    // Link is event-driven (its router ticks it): no per-cycle accounting,
    // so a skipped span needs no replay.
    void skip_all(sim::Cycle, sim::Cycle) {}
    [[nodiscard]] sim::Cycle horizon(sim::Cycle c) const {
        return link_.next_activity(c);
    }
    [[nodiscard]] bool quiescent() const { return link_.quiescent(); }
    void drain(sim::Cycle c, std::string& log) {
        noc::Packet out;
        while (rx_.pop(out)) {
            append(log, c, ":pkt:", out.a);
        }
    }

 private:
    noc::Link link_;
    sim::Port<noc::Packet> rx_;
    std::vector<std::pair<sim::Cycle, noc::Packet>> schedule_;
    std::size_t cursor_ = 0;
};

TEST(HorizonContract, LinkAcrossFuzzShapes) {
    for (const std::uint32_t latency : {1u, 40u, 100u}) {
        for (const std::uint32_t bpc : {8u, 16u}) {
            noc::LinkConfig cfg;
            cfg.latency = latency;
            cfg.bytes_per_cycle = bpc;
            SCOPED_TRACE("latency=" + std::to_string(latency) +
                         " bpc=" + std::to_string(bpc));
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                expect_horizon_exact<LinkHarness>(seed, 40'000, cfg);
            }
        }
    }
}

// ---- LocalStore ------------------------------------------------------------

class LsHarness {
 public:
    using Config = mem::LocalStoreConfig;

    LsHarness(const Config& cfg, std::uint64_t seed) : ls_(cfg) {
        Rng rng(seed);
        sim::Cycle at = 1;
        for (std::uint64_t id = 0; id < 160; ++id) {
            mem::LsRequest rq;
            rq.id = id;
            rq.is_write = rng.below(2) == 0;
            rq.addr = static_cast<sim::LsAddr>(rng.below(2048) * 64);
            rq.size = static_cast<std::uint32_t>(4u << rng.below(4));
            if (rq.is_write) {
                rq.data.assign(rq.size, static_cast<std::uint8_t>(id));
            }
            const auto client =
                static_cast<mem::LsClient>(rng.below(mem::kNumLsClients));
            schedule_.emplace_back(at, std::make_pair(client, std::move(rq)));
            at += next_gap(rng);
        }
    }

    bool deliver(sim::Cycle c, std::string&) {
        bool any = false;
        while (cursor_ < schedule_.size() && schedule_[cursor_].first == c) {
            auto& [client, rq] = schedule_[cursor_].second;
            ls_.enqueue(client, rq);
            ++cursor_;
            any = true;
        }
        return any;
    }
    void tick_all(sim::Cycle c) { ls_.tick(c); }
    // LocalStore is pure event-driven (not a Component subclass): no
    // per-cycle accounting, so a skipped span needs no replay.
    void skip_all(sim::Cycle, sim::Cycle) {}
    [[nodiscard]] sim::Cycle horizon(sim::Cycle c) const {
        return ls_.next_activity(c);
    }
    [[nodiscard]] bool quiescent() const { return ls_.quiescent(); }
    void drain(sim::Cycle c, std::string& log) {
        mem::LsResponse resp;
        for (std::size_t cl = 0; cl < mem::kNumLsClients; ++cl) {
            while (ls_.pop_response(static_cast<mem::LsClient>(cl), resp)) {
                append(log, c, ":ls:", resp.id * 10 + cl);
            }
        }
    }

 private:
    mem::LocalStore ls_;
    std::vector<std::pair<sim::Cycle, std::pair<mem::LsClient, mem::LsRequest>>>
        schedule_;
    std::size_t cursor_ = 0;
};

TEST(HorizonContract, LocalStoreAcrossFuzzShapes) {
    for (const std::uint32_t latency : {1u, 6u, 24u}) {
        for (const std::uint32_t ports : {1u, 3u}) {
            mem::LocalStoreConfig cfg;
            cfg.latency = latency;
            cfg.ports = ports;
            SCOPED_TRACE("latency=" + std::to_string(latency) +
                         " ports=" + std::to_string(ports));
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                expect_horizon_exact<LsHarness>(seed, 40'000, cfg);
            }
        }
    }
}

// ---- Mfc + LocalStore (cooperating pair) -----------------------------------

/// The MFC cannot run without its local store, so the pair is event-driven
/// as a unit: the horizon is the min over both, exactly as the wheel sees
/// two independently-armed components.  Line data comes back reactively: a
/// popped line request schedules deliver_line_data() a pseudo-random delay
/// later, mimicking the NoC round trip.  Both runs derive those delays from
/// the same per-line counter, so identical pop orders (the property under
/// test) yield identical delivery schedules.
class MfcHarness {
 public:
    struct Config {
        dma::MfcConfig mfc;
        mem::LocalStoreConfig ls;
    };

    MfcHarness(const Config& cfg, std::uint64_t seed)
        : ls_(cfg.ls), mfc_(cfg.mfc, ls_), delay_rng_(seed ^ 0xdadau) {
        Rng rng(seed);
        sim::Cycle at = 1;
        for (std::uint64_t n = 0; n < 80; ++n) {
            dma::MfcCommand cmd;
            cmd.op = dma::MfcOp::kGet;
            cmd.tag = static_cast<std::uint32_t>(n % 16);
            cmd.owner = n;
            cmd.mem_addr = rng.below(1 << 16) * 128;
            cmd.ls_addr = static_cast<sim::LsAddr>(rng.below(512) * 128);
            cmd.bytes = static_cast<std::uint32_t>(
                16u << rng.below(5));  // 16..256 B: 1..2 lines
            schedule_.emplace_back(at, cmd);
            at += next_gap(rng);
        }
    }

    bool deliver(sim::Cycle c, std::string& log) {
        bool any = false;
        while (cursor_ < schedule_.size() && schedule_[cursor_].first == c) {
            if (!mfc_.try_enqueue(schedule_[cursor_].second)) {
                append(log, c, ":rej:", schedule_[cursor_].second.owner);
            }
            ++cursor_;
            any = true;
        }
        while (!returns_.empty() && returns_.front().first <= c) {
            const std::uint64_t line = returns_.front().second;
            returns_.erase(returns_.begin());
            mfc_.deliver_line_data(
                line, std::vector<std::uint8_t>(line_bytes_[line], 0xAB));
            any = true;
        }
        return any;
    }
    void tick_all(sim::Cycle c) {
        ls_.tick(c);
        mfc_.tick(c);
    }
    void skip_all(sim::Cycle from, sim::Cycle to) {
        mfc_.skip(from, to);  // the LS is pure event-driven (no skip hook)
    }
    [[nodiscard]] sim::Cycle horizon(sim::Cycle c) const {
        const sim::Cycle pair =
            std::min(ls_.next_activity(c), mfc_.next_activity(c));
        // A pending line return is scheduled input, not component state:
        // fold it in like the machine's channel-drain lookahead does.
        return returns_.empty() ? pair
                                : std::min(pair, returns_.front().first);
    }
    [[nodiscard]] bool quiescent() const {
        return ls_.quiescent() && mfc_.quiescent() && returns_.empty();
    }
    void drain(sim::Cycle c, std::string& log) {
        dma::MfcLineRequest line;
        while (mfc_.pop_line_request(line)) {
            append(log, c, ":line:", line.line_id);
            line_bytes_[line.line_id] = line.bytes;
            const sim::Cycle delay = 5 + delay_rng_.below(300);
            returns_.emplace_back(c + delay, line.line_id);
            std::sort(returns_.begin(), returns_.end());
        }
        dma::MfcCompletion comp;
        while (mfc_.pop_completion(comp)) {
            append(log, c, ":done:", comp.owner * 100 + comp.tag);
        }
    }

 private:
    mem::LocalStore ls_;
    dma::Mfc mfc_;
    Rng delay_rng_;
    std::vector<std::pair<sim::Cycle, dma::MfcCommand>> schedule_;
    std::size_t cursor_ = 0;
    std::vector<std::pair<sim::Cycle, std::uint64_t>> returns_;
    std::vector<std::uint32_t> line_bytes_ = std::vector<std::uint32_t>(4096);
};

TEST(HorizonContract, MfcWithLocalStoreAcrossFuzzShapes) {
    for (const std::uint32_t decode : {1u, 30u, 100u}) {
        for (const std::uint32_t queue : {2u, 16u}) {
            MfcHarness::Config cfg;
            cfg.mfc.command_latency = decode;
            cfg.mfc.queue_depth = queue;
            SCOPED_TRACE("decode=" + std::to_string(decode) +
                         " queue=" + std::to_string(queue));
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                expect_horizon_exact<MfcHarness>(seed, 60'000, cfg);
            }
        }
    }
}

}  // namespace
}  // namespace dta
