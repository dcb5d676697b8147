/// \file types.hpp
/// \brief Fundamental scalar types shared by every simulator module.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>

namespace dta::sim {

/// Global simulation time, in core clock cycles.
using Cycle = std::uint64_t;

/// Sentinel for "not yet known" completion times (e.g. a register that is
/// pending on a main-memory round trip whose latency is dynamic).
inline constexpr Cycle kCycleNever = std::numeric_limits<Cycle>::max();

/// Sentinel horizon: no internally-scheduled activity, ever.
inline constexpr Cycle kIdleForever = kCycleNever;

/// The clock of one periodic duty: it owes the cycles c >= start with
/// `c % every == phase` (`every == 0` owes nothing).  A run loop that
/// jumps over cycles serves each span's owed cycles with take() or
/// take_all(), so the duty lands on the same cycles either way.
struct Cadence {
    Cycle every = 0;
    Cycle phase = 0;           ///< below every
    Cycle next = kCycleNever;  ///< first owed cycle

    /// Owes the first cycle on the cadence at or after \p from.
    void start(Cycle from) {
        next = every == 0 ? kCycleNever : from - from % every + phase;
        next += next < from ? every : 0;
    }
    [[nodiscard]] bool owes(Cycle to) const { return next < to; }
    /// Returns the owed cycle and owes the one after it.
    Cycle take() { return std::exchange(next, next + every); }
    /// Returns the first owed cycle and drops the others before \p to
    /// (only when owes(to)).
    Cycle take_all(Cycle to) {
        return std::exchange(next,
                             next + ((to - next - 1) / every + 1) * every);
    }
};

/// Byte address into the simulated main memory (512 MB fits easily).
using MemAddr = std::uint64_t;

/// Byte address into a processing element's local store.
using LsAddr = std::uint32_t;

/// Identifies a node (cluster of processing elements) in the machine.
using NodeId = std::uint16_t;

/// Identifies a processing element *within* its node.
using PeId = std::uint16_t;

/// Flat index of a processing element across the whole machine.
using GlobalPeId = std::uint32_t;

/// Index of a thread-code object inside a dta::isa::Program.
using ThreadCodeId = std::uint32_t;

/// Opaque handle to an allocated frame: identifies the owning PE and the
/// frame slot within that PE's frame memory.  A frame handle doubles as the
/// identity of the DTA thread that owns the frame.
struct FrameHandle {
    std::uint32_t global_pe = 0;  ///< flat PE index of the frame's owner
    std::uint32_t slot = 0;       ///< frame slot within the owner's LSE

    friend bool operator==(const FrameHandle&, const FrameHandle&) = default;

    /// Packs the handle into a 64-bit register value (what FALLOC returns).
    [[nodiscard]] std::uint64_t pack() const {
        return (static_cast<std::uint64_t>(global_pe) << 32) | slot;
    }
    /// Reconstructs a handle from a packed register value.
    [[nodiscard]] static FrameHandle unpack(std::uint64_t v) {
        return FrameHandle{static_cast<std::uint32_t>(v >> 32),
                           static_cast<std::uint32_t>(v & 0xffffffffu)};
    }
};

}  // namespace dta::sim
