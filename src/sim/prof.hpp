/// \file prof.hpp
/// \brief Host-time profiler: where does the simulator's *wall clock* go?
///
/// PR 1/4 made the simulated machine observable; this layer does the same
/// for the simulator itself.  Host nanoseconds are attributed per
/// (component, phase) — how long ticking pe3 took, how long scanning
/// horizons or re-arming the wheel — exactly the data an event-driven
/// scheduler core or a sweep scheduler needs before it can be designed or
/// validated.
///
/// Design rules, in priority order:
///  1. **Off is free.**  Every instrumentation site is guarded by one null
///     check on the machine's ProfBuffer pointer; no clock is read.
///  2. **On is neutral.**  Profiling only reads the host clock; it never
///     touches simulated state, so RunResult (minus its host_profile
///     section) is byte-identical with profiling on or off.
///  3. **Exclusive attribution.**  Scopes nest (a wake-path wheel insert
///     inside a producer's tick); a child's time is subtracted from its
///     enclosing scope so phase totals add up — they sum to the run's
///     measured wall clock minus loop control, which the coverage figure
///     reports honestly.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace dta::sim {

/// Where a host nanosecond was spent.  kTick is attributed per component;
/// the rest describe the run loop itself and land on the loop row.
enum class ProfPhase : std::uint8_t {
    kTick,             ///< inside a Component::tick call
    kNextActivity,     ///< loop tail: end/no-progress checks, next-due jump
    kFastforwardScan,  ///< skipped-span replay and the final skip() catch-up
    kAudit,            ///< invariant audit sweeps
    kSample,           ///< gauge sampling / metrics snapshots
    kWheelPop,         ///< the due-array pass, outside its visits
    kWheelInsert,      ///< due-array arms from wakes
    kCount
};

inline constexpr std::size_t kNumProfPhases =
    static_cast<std::size_t>(ProfPhase::kCount);

/// Stable lower-case name ("tick", "wheel_pop", ...) used in reports.
[[nodiscard]] const char* prof_phase_name(ProfPhase p);

/// Monotonic host clock in nanoseconds.
[[nodiscard]] inline std::uint64_t prof_now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// One (slot, phase) accumulator.
struct ProfAcc {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
};

/// Cumulative per-phase totals captured mid-run (rendered as host counter
/// tracks next to the simulated Perfetto tracks).
struct ProfSnapshot {
    Cycle cycle = 0;
    std::array<std::uint64_t, kNumProfPhases> ns{};
};

class ProfScope;

/// The run's accumulation buffer.  Row 0 is the run loop itself (loop
/// phases); row i + 1 is the machine's i-th component.  Not thread-safe:
/// only the thread running the machine may touch it mid-run.
class ProfBuffer {
public:
    /// The run loop's row.
    static constexpr std::uint32_t kLoopSlot = 0;

    ProfBuffer() = default;
    ProfBuffer(const ProfBuffer&) = delete;
    ProfBuffer& operator=(const ProfBuffer&) = delete;
    ProfBuffer(ProfBuffer&&) = delete;
    ProfBuffer& operator=(ProfBuffer&&) = delete;

    /// Sizes the buffer for \p num_components component rows (plus the
    /// loop row).  Must be called before any add().
    void reset(std::size_t num_components) {
        rows_.assign(num_components + 1, {});
    }

    void add(std::uint32_t slot, ProfPhase phase, std::uint64_t ns,
             std::uint64_t calls = 1) {
        ProfAcc& a = rows_[slot][static_cast<std::size_t>(phase)];
        a.ns += ns;
        a.calls += calls;
    }

    /// Time spent in scopes that opened with no enclosing scope (e.g. a
    /// wheel-insert scope inside a manually-timed component tick).  The
    /// manual timer subtracts it to keep attribution exclusive.
    [[nodiscard]] std::uint64_t take_orphan_child_ns() {
        const std::uint64_t v = orphan_child_ns_;
        orphan_child_ns_ = 0;
        return v;
    }

    /// Records the cumulative per-phase totals at \p cycle (for the host
    /// Perfetto tracks; sampled at the machine's gauge cadence).
    void snapshot(Cycle cycle);

    void set_wall_ns(std::uint64_t ns) { wall_ns_ = ns; }
    [[nodiscard]] std::uint64_t wall_ns() const { return wall_ns_; }

    [[nodiscard]] const std::vector<
        std::array<ProfAcc, kNumProfPhases>>& rows() const {
        return rows_;
    }
    [[nodiscard]] const std::vector<ProfSnapshot>& snapshots() const {
        return snapshots_;
    }

    /// Sum of a phase across every row.
    [[nodiscard]] std::uint64_t phase_ns(ProfPhase p) const;
    /// Sum of every accumulator (the profiler's account of the wall clock).
    [[nodiscard]] std::uint64_t total_ns() const;

private:
    friend class ProfScope;

    std::vector<std::array<ProfAcc, kNumProfPhases>> rows_;
    std::vector<ProfSnapshot> snapshots_;
    std::uint64_t wall_ns_ = 0;
    ProfScope* top_ = nullptr;          ///< innermost open scope
    std::uint64_t orphan_child_ns_ = 0; ///< scope time with no open parent
};

/// One link in a chained profiling timer: charge the span since the last
/// boundary \p t (minus time already claimed by nested scopes) and advance
/// the boundary.  Chaining instead of per-segment RAII scopes leaves no
/// un-attributed gaps inside the run loop and the scheduler's pass.
inline void prof_charge(ProfBuffer* pb, std::uint64_t& t, std::uint32_t slot,
                        ProfPhase phase) {
    const std::uint64_t t2 = prof_now_ns();
    pb->add(slot, phase, t2 - t - pb->take_orphan_child_ns());
    t = t2;
}

/// RAII scoped timer.  A null buffer makes construction and destruction a
/// single branch each — the off-cost of every instrumentation site.
class ProfScope {
public:
    ProfScope(ProfBuffer* buf, std::uint32_t slot, ProfPhase phase)
        : buf_(buf), slot_(slot), phase_(phase) {
        if (buf_ == nullptr) {
            return;
        }
        parent_ = buf_->top_;
        buf_->top_ = this;
        t0_ = prof_now_ns();
    }

    ProfScope(const ProfScope&) = delete;
    ProfScope& operator=(const ProfScope&) = delete;

    ~ProfScope() {
        if (buf_ == nullptr) {
            return;
        }
        const std::uint64_t dur = prof_now_ns() - t0_;
        buf_->top_ = parent_;
        // Exclusive (self) time: nested scopes already claimed child_ns_.
        buf_->add(slot_, phase_, dur - child_ns_);
        if (parent_ != nullptr) {
            parent_->child_ns_ += dur;
        } else {
            buf_->orphan_child_ns_ += dur;
        }
    }

private:
    ProfBuffer* buf_;
    std::uint32_t slot_;
    ProfPhase phase_;
    ProfScope* parent_ = nullptr;
    std::uint64_t t0_ = 0;
    std::uint64_t child_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Merged result (travels inside RunResult)
// ---------------------------------------------------------------------------

/// One (component, phase) line of the profile.
struct HostProfileEntry {
    std::string component;  ///< "-" for loop phases
    ProfPhase phase = ProfPhase::kTick;
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
};

/// A finished run's host-side profile (empty / disabled by default): the
/// measured wall clock, per-phase totals, the sampled series and the
/// per-(component, phase) lines.
struct HostProfile {
    bool enabled = false;
    std::uint64_t wall_ns = 0;
    std::array<std::uint64_t, kNumProfPhases> phase_ns{};
    std::vector<ProfSnapshot> samples;
    /// Per-(component, phase) lines with ns or calls > 0: the loop's
    /// phases, then each component in scheduler order — a deterministic
    /// order for reports.
    std::vector<HostProfileEntry> entries;

    [[nodiscard]] std::uint64_t total_ns() const;
    /// Alias of wall_ns kept for perfbench (ROADMAP, stale leftovers).
    [[nodiscard]] std::uint64_t total_wall_ns() const { return wall_ns; }
    /// Fraction of the measured wall clock the phase accumulators explain.
    [[nodiscard]] double coverage() const;

    /// Formats the sorted self-time table `dta_run --prof` prints: entries
    /// by descending ns (top \p top rows), then the coverage line.
    [[nodiscard]] std::string table(std::size_t top = 30) const;
};

/// Folds the run's buffer into \p out.  \p component_names must align
/// with the buffer's component rows (row i + 1 = name i).
void merge_prof_buffer(HostProfile& out, const ProfBuffer& buf,
                       const std::vector<std::string>& component_names);

}  // namespace dta::sim
