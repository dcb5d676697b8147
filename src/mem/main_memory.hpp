/// \file main_memory.hpp
/// \brief The simulated main memory (Table 2: 512 MB, 150-cycle latency,
///        one port).
///
/// The memory is both *functional* (it stores real bytes, so workload
/// results can be checked against references) and *timed* (requests go
/// through a port-limited queue and complete after the configured access
/// latency).  Timed requests come from the interconnect glue in src/core;
/// the functional interface is used by the host to initialise inputs and
/// read back outputs, outside simulated time.
///
/// Timing model: up to \ref MainMemoryConfig::ports requests *start* per
/// cycle, each additionally holding its bank for \ref
/// MainMemoryConfig::bank_busy cycles (so back-to-back starts are spaced);
/// a started request completes \ref MainMemoryConfig::latency cycles later.
/// This approximates a pipelined DRAM behind one channel, which is how the
/// CellSim memory the paper used behaves.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/fifo.hpp"
#include "sim/types.hpp"

namespace dta::sim {
class StateSink;
class StateSource;
}  // namespace dta::sim

namespace dta::mem {

/// Configuration of the main memory (defaults = Table 2 / Table 4).
struct MainMemoryConfig {
    std::uint64_t size_bytes = 512ull << 20;  ///< 512 MB
    std::uint32_t latency = 150;              ///< access latency, cycles
    std::uint32_t ports = 1;                  ///< requests started per cycle
    std::uint32_t bank_busy = 2;              ///< min cycles between starts on a port
    std::uint32_t max_request_bytes = 128;    ///< largest single access (one DMA line)
};

/// Kind of a timed memory request.
enum class MemOp : std::uint8_t { kRead, kWrite };

/// A timed request to main memory.
struct MemRequest {
    std::uint64_t id = 0;       ///< requester-chosen correlation id
    MemOp op = MemOp::kRead;
    sim::MemAddr addr = 0;
    std::uint32_t size = 4;     ///< bytes
    std::vector<std::uint8_t> data;  ///< payload for writes
    std::uint64_t meta = 0;     ///< opaque requester context
};

/// Completion of a timed request.
struct MemResponse {
    std::uint64_t id = 0;
    MemOp op = MemOp::kRead;
    sim::MemAddr addr = 0;
    std::vector<std::uint8_t> data;  ///< filled for reads
    std::uint64_t meta = 0;
};

/// The simulated DRAM, ticked by the memory interface (not a Component).
class MainMemory {
public:
    explicit MainMemory(const MainMemoryConfig& cfg);

    // --- functional access (host side, zero simulated time) ---------------
    void write_bytes(sim::MemAddr addr, std::span<const std::uint8_t> data);
    void read_bytes(sim::MemAddr addr, std::span<std::uint8_t> out) const;
    void write_u32(sim::MemAddr addr, std::uint32_t v);
    [[nodiscard]] std::uint32_t read_u32(sim::MemAddr addr) const;
    void write_u64(sim::MemAddr addr, std::uint64_t v);
    [[nodiscard]] std::uint64_t read_u64(sim::MemAddr addr) const;

    // --- timed access -----------------------------------------------------
    /// Enqueues a request (the controller queue is unbounded; back pressure
    /// is applied upstream by the interconnect).
    void enqueue(MemRequest req);

    /// Advances one cycle: starts up to `ports` queued requests when the
    /// port is free.
    void tick(sim::Cycle now);

    /// Retires the oldest in-flight request if its latency elapsed by
    /// \p now: performs the access and returns its response in \p out.
    /// The owner pops at a cycle before ticking it, so a request started
    /// at that cycle retires at a later one.
    [[nodiscard]] bool pop_response(sim::Cycle now, MemResponse& out);

    /// True when no request is queued or in flight.
    [[nodiscard]] bool quiescent() const {
        return queue_.empty() && in_flight_.empty();
    }

    /// Horizon: queued requests start when the port frees; in-flight
    /// requests retire at done_at.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) const {
        sim::Cycle h = sim::kIdleForever;
        if (!in_flight_.empty()) {
            h = in_flight_.front().done_at > now ? in_flight_.front().done_at
                                                 : now + 1;
        }
        if (!queue_.empty()) {
            const sim::Cycle start =
                port_free_at_ > now + 1 ? port_free_at_ : now + 1;
            h = start < h ? start : h;
        }
        return h;
    }

    [[nodiscard]] const MainMemoryConfig& config() const { return cfg_; }

    // --- statistics ---------------------------------------------------------
    [[nodiscard]] std::uint64_t reads_served() const { return reads_served_; }
    [[nodiscard]] std::uint64_t writes_served() const { return writes_served_; }
    [[nodiscard]] std::uint64_t bytes_read() const { return bytes_read_; }
    [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
    /// Peak depth the request queue reached (controller congestion metric).
    [[nodiscard]] std::size_t peak_queue_depth() const { return peak_queue_; }
    /// Requests waiting for a port right now (sampled as a gauge).
    [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
    /// Requests started but not yet retired.
    [[nodiscard]] std::size_t requests_in_flight() const {
        return in_flight_.size();
    }

    // --- checkpoint/restore -------------------------------------------------
    /// Serializes the backing store (allocated pages only), the request
    /// queue, in-flight accesses, and statistics.
    void save_state(sim::StateSink& s) const;
    void load_state(sim::StateSource& s);

private:
    struct InFlight {
        sim::Cycle done_at = 0;
        MemRequest req;
    };

    /// Page granularity of the sparse backing store.
    static constexpr std::uint64_t kPageBytes = 64 * 1024;

    [[nodiscard]] std::uint8_t* page_for(sim::MemAddr addr);
    [[nodiscard]] const std::uint8_t* page_if_present(sim::MemAddr addr) const;
    void bounds_check(sim::MemAddr addr, std::uint64_t size) const;

    MainMemoryConfig cfg_;
    std::vector<std::vector<std::uint8_t>> pages_;  ///< lazily allocated
    sim::Fifo<MemRequest> queue_;
    sim::Fifo<InFlight> in_flight_;  ///< ordered by done_at (FIFO starts)
    sim::Cycle port_free_at_ = 0;
    std::uint64_t reads_served_ = 0;
    std::uint64_t writes_served_ = 0;
    std::uint64_t bytes_read_ = 0;
    std::uint64_t bytes_written_ = 0;
    std::size_t peak_queue_ = 0;
};

}  // namespace dta::mem
