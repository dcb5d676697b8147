/// \file local_store.hpp
/// \brief Per-PE local store (Table 2: 256 KB, 6-cycle latency, 3 ports).
///
/// The local store of each SPE holds (a) the frames managed by the LSE,
/// (b) the staging area DMA prefetches write into, and (c) — conceptually —
/// code; code fetch is not simulated as LS traffic (the SPU is modelled
/// with an ideal instruction fetch, as in CellSim's SPU model).
///
/// Three clients share the LS ports each cycle, matching the real SPE:
/// the SPU load/store pipe, the LSE (frame writes from the interconnect),
/// and the MFC (DMA data).  Requests are serviced FIFO per client with
/// round-robin arbitration across clients, up to `ports` per cycle.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace dta::sim {
class StateSink;
class StateSource;
}  // namespace dta::sim

namespace dta::mem {

/// Who issued a local-store request (used for port arbitration & routing).
enum class LsClient : std::uint8_t { kSpu = 0, kLse = 1, kMfc = 2 };
inline constexpr std::size_t kNumLsClients = 3;

/// Configuration of one local store (defaults = Table 2; the paper prints
/// "156 kB" as the usable size of the 256 KB SPE local store once code is
/// resident — we keep the full 256 KB and let the frame/staging layout in
/// CoreConfig reserve the usable portion).
struct LocalStoreConfig {
    std::uint32_t size_bytes = 256 * 1024;
    std::uint32_t latency = 6;   ///< cycles from service to data available
    std::uint32_t ports = 3;     ///< requests serviced per cycle
    std::uint32_t max_request_bytes = 128;  ///< DMA writes one line per request
};

/// A timed request against the local store.
struct LsRequest {
    std::uint64_t id = 0;
    bool is_write = false;
    sim::LsAddr addr = 0;
    std::uint32_t size = 4;
    std::vector<std::uint8_t> data;  ///< payload for writes
    std::uint64_t meta = 0;
};

/// Completion of a timed local-store request.
struct LsResponse {
    std::uint64_t id = 0;
    bool is_write = false;
    sim::LsAddr addr = 0;
    std::vector<std::uint8_t> data;  ///< filled for reads
    std::uint64_t meta = 0;
};

/// One SPE's local store.
class LocalStore {
public:
    explicit LocalStore(const LocalStoreConfig& cfg);

    // --- functional access (tests / frame bootstrap) -----------------------
    void write_bytes(sim::LsAddr addr, std::span<const std::uint8_t> data);
    void read_bytes(sim::LsAddr addr, std::span<std::uint8_t> out) const;
    void write_u64(sim::LsAddr addr, std::uint64_t v);
    [[nodiscard]] std::uint64_t read_u64(sim::LsAddr addr) const;
    void write_u32(sim::LsAddr addr, std::uint32_t v);
    [[nodiscard]] std::uint32_t read_u32(sim::LsAddr addr) const;

    // --- timed access --------------------------------------------------------
    void enqueue(LsClient client, LsRequest req);
    /// Retires the accesses done by \p now, then services up to `ports`
    /// queued requests round-robin.  A tick with nothing due — no request
    /// queued, no in-flight access done by \p now — returns before touching
    /// any state.  That is exact: a full idle tick walks the round-robin
    /// cursor once around the clients back to where it started and changes
    /// nothing else.
    void tick(sim::Cycle now) {
        if (!any_queued() &&
            (in_flight_.empty() || in_flight_.front().done_at > now)) {
            return;
        }
        service(now);
    }
    /// True when a completion for \p client waits to be popped.
    [[nodiscard]] bool has_response(LsClient client) const {
        return !responses_[static_cast<std::size_t>(client)].empty();
    }
    [[nodiscard]] bool pop_response(LsClient client, LsResponse& out) {
        auto& q = responses_[static_cast<std::size_t>(client)];
        if (q.empty()) {
            return false;
        }
        out = std::move(q.front());
        q.pop_front();
        return true;
    }

    [[nodiscard]] bool quiescent() const;
    [[nodiscard]] const LocalStoreConfig& config() const { return cfg_; }

    /// Activity horizon folded into the owning PE's (the LS is not a
    /// top-level component): queued work is serviced every cycle, responses
    /// await the owner's next drain, in-flight accesses retire at done_at.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) const {
        if (any_queued()) {
            return now + 1;
        }
        for (const auto& q : responses_) {
            if (!q.empty()) {
                return now + 1;
            }
        }
        if (!in_flight_.empty()) {
            return in_flight_.front().done_at > now
                       ? in_flight_.front().done_at
                       : now + 1;
        }
        return sim::kCycleNever;
    }

    // --- statistics -------------------------------------------------------------
    [[nodiscard]] std::uint64_t accesses(LsClient client) const {
        return served_[static_cast<std::size_t>(client)];
    }
    /// Cycles in which all ports were busy and work was still queued.
    [[nodiscard]] std::uint64_t contended_cycles() const { return contended_; }

    // --- checkpoint/restore (driven by the owning PE's save_state) ----------
    void save_state(sim::StateSink& s) const;
    void load_state(sim::StateSource& s);

private:
    struct InFlight {
        sim::Cycle done_at = 0;
        LsClient client = LsClient::kSpu;
        LsRequest req;
    };

    void bounds_check(sim::LsAddr addr, std::uint64_t size) const;
    [[nodiscard]] bool any_queued() const {
        for (const auto& q : queues_) {
            if (!q.empty()) {
                return true;
            }
        }
        return false;
    }
    /// The work of a tick that has something due (see tick()).
    void service(sim::Cycle now);

    LocalStoreConfig cfg_;
    std::vector<std::uint8_t> bytes_;
    std::array<std::deque<LsRequest>, kNumLsClients> queues_;
    std::deque<InFlight> in_flight_;
    std::array<std::deque<LsResponse>, kNumLsClients> responses_;
    std::size_t rr_next_ = 0;  ///< round-robin arbitration cursor
    std::array<std::uint64_t, kNumLsClients> served_{};
    std::uint64_t contended_ = 0;
};

}  // namespace dta::mem
