/// \file wheel.hpp
/// \brief The scheduler that drives every run: a per-component due array
///        that turns "tick every component every cycle" into "visit each
///        component only when it can act".
///
/// After every tick a component is *re-armed* at the horizon the tick
/// returned and sleeps until then; inbound traffic re-arms sleepers
/// through the wake contract (sim/component.hpp).  Results are
/// fingerprint-exact by construction:
///
///  * Per-component accounting cursors.  `acct_[i]` is component i's next
///    unaccounted cycle.  When i is visited at cycle h after sleeping, the
///    span [acct_[i], h) is bulk-applied with `skip()` *first* — the wake
///    contract guarantees a sleeping component received no input inside the
///    span, so its state is frozen and skip() is bit-identical to ticking.
///  * One pass per active cycle.  `due_[i]` is component i's next visit
///    (kIdleForever = unarmed) and the whole schedule: there is no queue
///    beside it.  run_cycle(at) walks the array once in ascending index —
///    the list order a per-cycle loop ticks in — visiting each i with
///    due_[i] == at and folding every other due_[i] into a running minimum.
///    next_due() is that minimum, so it is exact: the run loop never lands
///    on a cycle at which nothing is due.
///  * List-order wakes.  A push into a *later*-indexed component stores
///    the current cycle and the same pass reaches it (a per-cycle loop
///    would tick it after the producer); a push into an earlier-indexed one
///    stores the next cycle and lowers the kept minimum — exactly the
///    wrap-edge rule docs/ARCHITECTURE.md derives for the ring.
///
/// The per-cycle reference (MachineConfig::use_wheel = false) is a policy
/// of the same scheduler, not a second loop: the machine calls arm_all(at
/// + 1) after every pass, so every component is due every cycle, ticked in
/// list order, and no horizon decides a visit.  The differential tests
/// and dta_fuzz compare the two policies byte for byte.
///
/// The pass costs O(components) per active cycle: about a dozen on the
/// paper's shape, 45 on the largest tested one (4 nodes x 8 SPEs).
/// bench/microbench.cpp's BM_WheelSchedulerPopRearm records it up to 256.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/component.hpp"
#include "sim/port.hpp"
#include "sim/prof.hpp"
#include "sim/types.hpp"

namespace dta::sim {

/// Host-side counters of the scheduler's own behaviour.  Travels in
/// RunResult::wheel and is *excluded* from the JSON run report and every
/// byte-identity comparison, exactly like RunResult::host_profile: the
/// simulated results are byte-identical under either scheduling policy,
/// and these counters describe the scheduler, not the machine.
struct WheelStats {
    bool enabled = false;
    std::uint64_t pops = 0;     ///< component visits (ticks)
    /// Arms at a later cycle: start(), finite re-arms and next-cycle wakes
    /// (a same-cycle wake joins the pass in flight and is not counted).
    std::uint64_t inserts = 0;
    std::uint64_t wakes = 0;    ///< inbound-traffic wakes that re-armed
    std::uint64_t active_cycles = 0;   ///< cycles with >= 1 due component
    /// Always 0: the scheduler no longer degrades to dense ticking.  Kept
    /// because perfbench reports it as `sim.dense_cycles`.
    std::uint64_t dense_cycles = 0;
    std::uint64_t peak_occupancy = 0;  ///< most components armed at once

    /// One point of the Perfetto "wheel" counter track, captured at the
    /// machine's gauge cadence.
    struct Sample {
        Cycle cycle = 0;
        std::uint32_t shard = 0;  ///< always 0 (trace track "shard0/...")
        std::uint64_t occupancy = 0;  ///< components armed (finite due)
        std::uint64_t pops = 0;       ///< cumulative pops at this cycle
        std::uint64_t inserts = 0;    ///< cumulative inserts at this cycle
    };
    std::vector<Sample> samples;

    /// Average components visited per accounted cycle (the headline ratio:
    /// the per-cycle reference visits N on every cycle).
    [[nodiscard]] double pops_per_cycle(Cycle cycles) const {
        return cycles == 0 ? 0.0
                           : static_cast<double>(pops) /
                                 static_cast<double>(cycles);
    }
};

/// Per-machine scheduler: owns the due/accounting cursors for an ordered
/// component list and drives the visits.
class WheelScheduler final : public Waker {
public:
    /// Binds the scheduler to \p components (the run loop's scheduler list,
    /// in tick order).  Call once before start().
    void attach(const std::vector<Component*>& components);

    /// Arms every component at cycle \p now and activates the wake hook.
    void start(Cycle now);

    /// Arms every component at cycle \p at (between cycles).  Called after
    /// every run_cycle, it is the per-cycle reference policy.
    void arm_all(Cycle at);

    [[nodiscard]] bool started() const { return started_; }

    /// No component is armed at any finite cycle: every horizon came back
    /// kIdleForever.  On a non-quiescent machine this is a certain
    /// (idle-forever) deadlock.
    [[nodiscard]] bool idle() const { return armed_ == 0; }

    /// Components currently armed at a finite cycle (the live-telemetry
    /// occupancy feed; same counter the sample() series records).
    [[nodiscard]] std::uint64_t armed() const { return armed_; }

    /// Earliest cycle at which any component is due, exactly (kIdleForever
    /// when idle()).  Valid between cycles.
    [[nodiscard]] Cycle next_due() const { return next_; }

    /// Runs one cycle: one ascending pass over the due array that visits
    /// every component due at \p at (catch-up skip, tick, re-arm at the
    /// returned horizon), folding in same-cycle wakes, and recomputes
    /// next_due().  \p at must not pass next_due().  Returns the number of
    /// components ticked.  \p pb / \p t thread the run loop's chained
    /// profiling timer through (null pb disables): visits charge kTick, the
    /// rest of the pass (re-arm stores included) kWheelPop.
    std::uint32_t run_cycle(Cycle at, ProfBuffer* pb, std::uint64_t& t);

    /// Bulk-accounts [acct_i, to) on every component lagging behind \p to —
    /// the run loop's final catch-up (and the one before a checkpoint or a
    /// stop-at cut).  After this every component has accounted [0, to).
    void catch_up(Cycle to);

    /// Waker: inbound traffic landed in \p component's queue.  Joins the
    /// current cycle when the list order still permits it (producer index
    /// below consumer index), else arms for the next cycle.
    void wake(std::uint32_t component) override;

    /// Charges wake-path arms to the kWheelInsert phase (they fire inside a
    /// producer's tick; the orphan-child mechanism keeps the enclosing
    /// kTick charge exclusive).  Null disables.
    void set_prof(ProfBuffer* pb) { pb_ = pb; }

    [[nodiscard]] const WheelStats& stats() const { return stats_; }
    /// Appends one Perfetto counter-track point (gauge cadence).
    void sample(Cycle now) {
        stats_.samples.push_back(
            {now, 0, armed_, stats_.pops, stats_.inserts});
    }

private:
    static constexpr std::uint32_t kNoCursor = 0xffffffffu;

    std::vector<Component*> comps_;
    std::vector<Cycle> due_;   ///< scheduled visit; kIdleForever = unarmed
    std::vector<Cycle> acct_;  ///< next unaccounted cycle, per component
    Cycle next_ = kIdleForever;  ///< min over due_; see next_due()
    std::uint64_t armed_ = 0;    ///< components with finite due_

    bool started_ = false;
    bool in_cycle_ = false;
    Cycle now_ = 0;                   ///< cycle being (or last) processed
    std::uint32_t cursor_ = kNoCursor;  ///< component being ticked
    ProfBuffer* pb_ = nullptr;        ///< wake-path kWheelInsert charges

    WheelStats stats_;
};

}  // namespace dta::sim
