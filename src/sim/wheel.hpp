/// \file wheel.hpp
/// \brief Event-driven scheduler core: a hierarchical timing wheel plus the
///        per-component scheduling state that turns "tick every component
///        every cycle" into "visit each component only when it can act".
///
/// The dense loop (kept alive behind `--no-wheel` / DTA_NO_WHEEL as the
/// differential oracle) ticks all N components at every cycle and consults
/// `next_activity()` only when the machine-wide fingerprint freezes.  The
/// wheel inverts that: after every tick a component is *re-armed* at its own
/// declared horizon and sleeps until then, and inbound traffic re-arms
/// sleepers through the wake contract (sim/component.hpp).  Results are
/// fingerprint-exact by construction:
///
///  * Per-component accounting cursors.  `acct_[i]` is component i's next
///    unaccounted cycle.  When i is visited at cycle h after sleeping, the
///    span [acct_[i], h) is bulk-applied with `skip()` *first* — the wake
///    contract guarantees a sleeping component received no input inside the
///    span, so its state is frozen and skip() is bit-identical to ticking.
///  * Dense-order wakes.  Components are visited in ascending scheduler-
///    list index within a cycle, the dense loop's relative order: the due
///    set of the cycle is a bitset over component indices, scanned upward.
///    A push into a *later*-indexed component joins the current cycle (it
///    sets a bit the scan has not reached yet, so the component is ticked
///    after the producer, as in the dense loop); a push into an
///    earlier-indexed one arms it for the next cycle — exactly the
///    wrap-edge rule docs/ARCHITECTURE.md derives for the ring.
///  * Next-cycle lane.  Most re-arms of a busy machine land at exactly
///    now+1 (73% on the paper's mmul(32)/pf).  Those set a bit in a second
///    bitset, the lane, instead of going through the calendar; run_cycle()
///    drains the lane into the due set before it collects the calendar
///    slot, with the same `due_[i] == at` filter that stale calendar
///    entries get.  A fully busy machine therefore costs one bit flip per
///    component per cycle, and no separate dense mode is needed.
///
/// The wheel itself is a 2-level calendar: 256 one-cycle L0 slots, 256
/// 256-cycle L1 slots (64Ki-cycle span), and an overflow list.  Entries are
/// lazily deleted: `due_[i]` is the single source of truth, and stale
/// entries (left behind when a wake re-armed a component earlier) are
/// filtered on collection.  A wake only ever *lowers* a component's due
/// cycle, so the earliest live entry is never hidden behind a ghost.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/component.hpp"
#include "sim/port.hpp"
#include "sim/prof.hpp"
#include "sim/types.hpp"

namespace dta::sim {

/// Host-side counters of the wheel's own behaviour.  Travels in
/// RunResult::wheel and is *excluded* from the JSON run report and every
/// byte-identity comparison, exactly like RunResult::host_profile: the
/// simulated results are byte-identical with the wheel on or off, and these
/// counters describe the scheduler, not the machine.
struct WheelStats {
    bool enabled = false;
    std::uint64_t pops = 0;     ///< component visits taken from the wheel
    std::uint64_t inserts = 0;  ///< wheel enqueues (arms, re-arms, wakes)
    std::uint64_t rearms = 0;   ///< post-tick next_activity() reschedules
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
        std::uint32_t shard = 0;
        std::uint64_t occupancy = 0;  ///< components armed (finite due)
        std::uint64_t pops = 0;       ///< cumulative pops at this cycle
        std::uint64_t inserts = 0;    ///< cumulative inserts at this cycle
    };
    std::vector<Sample> samples;

    /// Folds shard \p shard's stats in (counters add; samples concatenate
    /// and are re-sorted by (cycle, shard) for a deterministic merge).
    void merge_from(const WheelStats& o, std::uint32_t shard);

    /// Average components visited per accounted cycle (the headline ratio:
    /// dense ticking visits N on every cycle).
    [[nodiscard]] double pops_per_cycle(Cycle cycles) const {
        return cycles == 0 ? 0.0
                           : static_cast<double>(pops) /
                                 static_cast<double>(cycles);
    }
};

/// The calendar queue: maps future cycles to component ids.  Standalone so
/// bench/microbench.cpp can drive insert/advance/collect at 1e6-op scale
/// without a machine around it.
class TimingWheel {
public:
    TimingWheel() { l0_.resize(kSlots); l1_.resize(kSlots); }

    /// Stores \p id at cycle \p at.  \p at must be >= the current position.
    void insert(Cycle at, std::uint32_t id);

    /// Advances the wheel to \p at and moves every id stored there into
    /// \p out (appended; caller clears).  Cycles between the previous
    /// position and \p at must hold no *live* entries (the caller only
    /// advances to its own earliest due cycle or to a bound below it);
    /// stale ids from lazily-deleted entries may be returned and must be
    /// filtered by the caller against its due table.
    void collect(Cycle at, std::vector<std::uint32_t>& out);

    /// Earliest cycle holding any entry (live or stale); kCycleNever when
    /// empty.  Because a wake only moves a component *earlier*, the minimum
    /// over all entries is always a live one.
    [[nodiscard]] Cycle next_due() const;

    /// Drops every entry and repositions the wheel at \p at.
    void reset(Cycle at);

    [[nodiscard]] std::size_t entries() const { return entries_; }

private:
    static constexpr std::uint32_t kSlots = 256;
    static constexpr std::uint32_t kPageShift = 8;    ///< L0 span: 256 cycles
    static constexpr std::uint32_t kEpochShift = 16;  ///< L1 span: 64Ki

    struct Entry {
        Cycle at = 0;
        std::uint32_t id = 0;
    };

    [[nodiscard]] static Cycle page_of(Cycle c) { return c >> kPageShift; }
    [[nodiscard]] static Cycle epoch_of(Cycle c) { return c >> kEpochShift; }

    /// Moves the wheel's notion of "now" to \p at, cascading L1 pages into
    /// L0 and overflow epochs into L1 as they come into range.
    void advance(Cycle at);
    void refill_l1_from_overflow();
    void refill_l0_from_l1();

    Cycle pos_ = 0;  ///< cycles < pos_ are in the past
    std::vector<std::vector<std::uint32_t>> l0_;  ///< current page, 1-cycle slots
    std::vector<std::vector<Entry>> l1_;  ///< current epoch, 256-cycle slots
    std::vector<Entry> overflow_;         ///< beyond the current epoch
    std::size_t entries_ = 0;
    std::size_t l0_count_ = 0;
    std::size_t l1_count_ = 0;
};

/// Per-run-loop scheduler: owns the due/accounting cursors for an ordered
/// component list and drives visits through the wheel.  One instance per
/// run loop — the single-threaded Machine or one per Shard — so wakes never
/// cross host threads.
class WheelScheduler final : public Waker {
public:
    /// Binds the scheduler to \p components (the run loop's scheduler list,
    /// in dense tick order).  Call once before start().
    void attach(const std::vector<Component*>& components);

    /// Arms every component at cycle \p now and activates the wake hook.
    void start(Cycle now);

    [[nodiscard]] bool started() const { return started_; }

    /// No component is armed at any finite cycle: every horizon came back
    /// kIdleForever.  This is exactly the condition under which the dense
    /// loop's horizon scan declares idle-forever deadlock — checked on
    /// armed_ rather than the wheel's entry count because lazily-deleted
    /// ghosts can keep the wheel non-empty after the last live entry died.
    [[nodiscard]] bool idle() const { return armed_ == 0; }

    /// Components currently armed at a finite cycle (the live-telemetry
    /// occupancy feed; same counter the sample() series records).
    [[nodiscard]] std::uint64_t armed() const { return armed_; }

    /// Earliest cycle at which any component is scheduled: the lane's
    /// cycle while the lane holds a bit, else the calendar's earliest
    /// entry.  May name a cycle whose entries are all stale (the visit then
    /// pops nothing and the loop advances) — never later than the true
    /// earliest live entry.
    [[nodiscard]] Cycle next_due() const {
        return lane_live_ ? lane_at_ : wheel_.next_due();
    }

    /// Runs one cycle: visits every component due at \p at in ascending
    /// list index (catch-up skip, tick, re-arm), folding in same-cycle
    /// wakes.  Returns the number of components ticked.  \p pb / \p t
    /// thread the run loop's chained profiling timer through (null pb
    /// disables).
    std::uint32_t run_cycle(Cycle at, ProfBuffer* pb, std::uint64_t& t);

    /// Bulk-accounts [acct_i, to) on every component lagging behind \p to —
    /// the run loop's final catch-up (and the sharded loop's epoch-end
    /// catch-up).  After this every component has accounted [0, to).
    void catch_up(Cycle to);

    /// External re-arm at an absolute cycle (inbound cross-shard channel
    /// entries peeked at run_until entry).  Unlike wake(), never same-cycle.
    void wake_at(std::uint32_t component, Cycle at);

    /// Waker: inbound traffic landed in \p component's queue.  Joins the
    /// current cycle when the dense order still permits it (producer index
    /// below consumer index), else arms for the next cycle.
    void wake(std::uint32_t component) override;

    /// Charges wake-path wheel insertions to the kWheelInsert phase (they
    /// fire inside a producer's tick; the orphan-child mechanism keeps the
    /// enclosing kTick charge exclusive).  Null disables.
    void set_prof(ProfBuffer* pb) { pb_ = pb; }

    [[nodiscard]] const WheelStats& stats() const { return stats_; }
    /// Appends one Perfetto counter-track point (gauge cadence).
    void sample(Cycle now) {
        stats_.samples.push_back(
            {now, 0, armed_, stats_.pops, stats_.inserts});
    }

private:
    static constexpr std::uint32_t kNoCursor = 0xffffffffu;

    void arm(std::uint32_t i, Cycle at);
    static void set_bit(std::vector<std::uint64_t>& bits, std::uint32_t i) {
        bits[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
    /// Moves the lane's live bits (due_[i] == at) into the due set.
    void drain_lane(Cycle at);

    std::vector<Component*> comps_;
    std::vector<Cycle> due_;   ///< scheduled visit; kIdleForever = unarmed
    std::vector<Cycle> acct_;  ///< next unaccounted cycle, per component
    TimingWheel wheel_;
    std::vector<std::uint64_t> due_now_;  ///< bitset: indices due at now_
    std::vector<std::uint64_t> lane_;     ///< bitset: indices armed at lane_at_
    bool lane_live_ = false;              ///< lane_ holds a bit
    Cycle lane_at_ = 0;                   ///< the lane's cycle: now_ + 1
    std::vector<std::uint32_t> scratch_;  ///< collect() buffer
    std::uint64_t armed_ = 0;             ///< components with finite due_

    bool started_ = false;
    bool in_cycle_ = false;
    Cycle now_ = 0;                   ///< cycle being (or last) processed
    std::uint32_t cursor_ = kNoCursor;  ///< component being ticked
    ProfBuffer* pb_ = nullptr;        ///< wake-path kWheelInsert charges

    WheelStats stats_;
};

}  // namespace dta::sim
