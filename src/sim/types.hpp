/// \file types.hpp
/// \brief Fundamental scalar types shared by every simulator module.
#pragma once

#include <cstdint>
#include <limits>

namespace dta::sim {

/// Global simulation time, in core clock cycles.
using Cycle = std::uint64_t;

/// Sentinel for "not yet known" completion times (e.g. a register that is
/// pending on a main-memory round trip whose latency is dynamic).
inline constexpr Cycle kCycleNever = std::numeric_limits<Cycle>::max();

/// Sentinel horizon: no internally-scheduled activity, ever.
inline constexpr Cycle kIdleForever = kCycleNever;

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
