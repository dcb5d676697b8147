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

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/fifo.hpp"
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

/// The bytes of one local-store access, with the slice of the
/// `std::vector<std::uint8_t>` interface the data path uses.  Payloads of
/// up to kInline bytes (every SPU access and every LSE frame write) live
/// inline, so building, queueing and retiring them never allocates; larger
/// ones (DMA lines) go to the heap.  Snapshots write size() and the bytes,
/// whichever the representation.
class LsPayload {
public:
    static constexpr std::size_t kInline = 8;

    LsPayload() = default;
    LsPayload(const LsPayload& o) { assign(o.begin(), o.end()); }
    LsPayload& operator=(const LsPayload& o) {
        if (this != &o) {
            assign(o.begin(), o.end());
        }
        return *this;
    }
    /// Moves leave the source empty, as a moved-from vector is.
    LsPayload(LsPayload&& o) noexcept
        : size_(std::exchange(o.size_, 0)),
          inline_(o.inline_),
          heap_(std::move(o.heap_)) {}
    LsPayload& operator=(LsPayload&& o) noexcept {
        size_ = std::exchange(o.size_, 0);
        inline_ = o.inline_;
        heap_ = std::move(o.heap_);
        return *this;
    }
    LsPayload& operator=(std::initializer_list<std::uint8_t> bytes) {
        assign(bytes.begin(), bytes.end());
        return *this;
    }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] std::uint8_t* data() {
        return size_ <= kInline ? inline_.data() : heap_.get();
    }
    [[nodiscard]] const std::uint8_t* data() const {
        return size_ <= kInline ? inline_.data() : heap_.get();
    }
    [[nodiscard]] std::uint8_t* begin() { return data(); }
    [[nodiscard]] std::uint8_t* end() { return data() + size_; }
    [[nodiscard]] const std::uint8_t* begin() const { return data(); }
    [[nodiscard]] const std::uint8_t* end() const { return data() + size_; }
    [[nodiscard]] std::uint8_t& operator[](std::size_t i) { return data()[i]; }
    [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
        return data()[i];
    }

    /// Like vector::resize: keeps the first min(n, size()) bytes and
    /// zero-fills the rest.
    void resize(std::size_t n) {
        if (n > kInline) {
            if (n != size_) {
                auto next = std::make_unique<std::uint8_t[]>(n);
                std::memcpy(next.get(), data(), std::min(n, size_));
                heap_ = std::move(next);
            }
        } else if (size_ > kInline) {
            std::memcpy(inline_.data(), heap_.get(), n);
            heap_.reset();
        } else if (n > size_) {
            std::fill(inline_.begin() + size_, inline_.begin() + n, 0);
        }
        size_ = n;
    }
    void assign(std::size_t n, std::uint8_t b) {
        resize(0);
        resize(n);
        std::fill(begin(), end(), b);
    }
    template <std::forward_iterator It>
    void assign(It first, It last) {
        resize(0);
        resize(static_cast<std::size_t>(std::distance(first, last)));
        std::copy(first, last, begin());
    }

private:
    std::size_t size_ = 0;
    std::array<std::uint8_t, kInline> inline_{};
    std::unique_ptr<std::uint8_t[]> heap_;  ///< used only when size_ > kInline
};

/// A timed request against the local store.
struct LsRequest {
    std::uint64_t id = 0;
    bool is_write = false;
    sim::LsAddr addr = 0;
    std::uint32_t size = 4;
    LsPayload data;  ///< payload for writes
    std::uint64_t meta = 0;
};

/// Completion of a timed local-store request.
struct LsResponse {
    std::uint64_t id = 0;
    bool is_write = false;
    sim::LsAddr addr = 0;
    LsPayload data;  ///< filled for reads
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
        out = q.take_front();
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
    /// The round-robin successor of client index \p i.
    [[nodiscard]] static std::size_t next_client(std::size_t i) {
        return i + 1 == kNumLsClients ? 0 : i + 1;
    }
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
    std::array<sim::Fifo<LsRequest>, kNumLsClients> queues_;
    sim::Fifo<InFlight> in_flight_;
    std::array<sim::Fifo<LsResponse>, kNumLsClients> responses_;
    std::size_t rr_next_ = 0;  ///< round-robin arbitration cursor
    std::array<std::uint64_t, kNumLsClients> served_{};
    std::uint64_t contended_ = 0;
};

}  // namespace dta::mem
