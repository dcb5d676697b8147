/// \file component.hpp
/// \brief The uniform clocked-component interface.
///
/// The machine's scheduled parts (SPU pipelines, bus fabrics, schedulers,
/// the memory interface and the node routers) implement `Component` so the
/// machine can drive them from one scheduler loop instead of hand-rolled
/// per-type loops, and — crucially — can *skip* cycles nobody needs.
///
/// ## The horizon contract
///
/// `tick(now)` returns the earliest cycle strictly greater than `now` at
/// which this component's `tick` could change observable state **assuming
/// it receives no new input**, or `kIdleForever` if no internally-scheduled
/// event is pending, read from the state the tick leaves behind.
///
/// "Assuming no new input" is what makes the contract local: a component
/// waiting on an in-flight request (a DMA line crossing the NoC, a read
/// queued at the memory controller) reports `kIdleForever`, because the
/// component currently *carrying* that request reports a finite horizon,
/// and its delivery wakes the waiter (below). A component must be
/// conservative in two situations:
///
///  1. Any non-empty queue it drains on a best-effort basis each tick
///     (an outbox waiting for fabric credit, a port it retries) forces a
///     horizon of `now + 1`: the retry itself is observable activity.
///  2. Any tick that *mutates* state unconditionally (posting a dispatch
///     request, starting a decode) must not be skipped; report `now + 1`
///     until the mutation has happened.
///
/// Conservative only while there is work: a horizon may stay finite only
/// while some component holds work its tick could act on, and once none
/// does, every tick returns `kIdleForever`.  The run ends on that rule —
/// it asks quiescent() only once no component is armed — so a finite
/// horizon on a quiescent machine keeps the run from ending (the
/// no-progress check then names the armed components in an internal
/// error).  The per-cycle reference policy checks the rule every cycle.
///
/// Parts that a component ticks and then changes (the MFC, an inter-node
/// link, main memory) are not Components: a horizon from their own tick
/// would come too early.  Each keeps a plain `next_activity(now) const`
/// that its owner queries at the end of its own tick.
///
/// `skip(from, to)` accounts for cycles a component is not ticked: the
/// per-cycle bookkeeping ticking would have produced (idle/prefetch
/// breakdown charges, stale-by-one timestamp reads) is applied in bulk.
/// Results must be bit-identical to ticking every cycle in `[from, to)`.
///
/// ## The re-arm/wake contract (the scheduler)
///
/// The scheduler (sim/wheel.hpp) applies the horizon contract *per
/// component*: after every tick the component is re-armed at exactly the
/// horizon the tick returned, in the scheduler's due array, and is not
/// visited before then.
/// The "assuming no new input" escape hatch is closed by wakes: every queue
/// a component drains carries a `Waker` binding (Port<T>::set_waker, or the
/// equivalent hook on the fabric), so the
/// moment a producer pushes, the sleeping consumer is re-armed — at the
/// current cycle if the list's tick order would still reach it this cycle
/// (producer index below consumer index in the scheduler list), else at the
/// next one. Two consequences for implementers:
///
///  1. The horizon must cover every queue whose *drain* the component
///     performs, even queues filled by other components mid-cycle: after
///     the wake delivers the first visit, the component's own horizon keeps
///     it hot until the queue empties (rule 1 above). A pull-model queue
///     examined in tick() but owned by another object (e.g. a router
///     draining its node's outboxes) counts as "its" queue here.
///  2. A sleeping component's accounting is applied lazily: when a wake or
///     re-arm lands it at cycle `h`, the scheduler first calls
///     `skip(acct, h)` for the slept span and only then `tick(h)` (and at
///     the end of a run, or before a checkpoint, it catches every
///     component up). skip() must therefore be safe mid-run on *any*
///     quiescent-between-events state, while other components keep
///     ticking.
///
/// ## The serialization contract (checkpoint/restore)
///
/// The third pillar next to tick/quiescence/horizon: `save_state()` /
/// `load_state()` capture and reinstate *everything* a component carries
/// between cycles — queues, in-flight requests, pipeline registers,
/// statistics counters — through the byte streams in sim/snapshot.hpp.
/// The Machine snapshots only at consistent points (between cycles, with
/// all skip-accounting settled), so implementations never see a
/// mid-cycle state. Rules:
///
///  1. Round trip is exact: save at cycle N, load into a freshly
///     constructed twin, and every subsequent tick must be bit-identical
///     to the original run — including statistics, event-log output, and
///     deadlock diagnostics. Wiring (pointers to peers, config) is NOT
///     serialized; it comes from construction.
///  2. Serialize field by field, never by memcpy of structs (padding),
///     and iterate unordered containers in a canonical sorted order so
///     saving twice yields byte-identical snapshots.
///  3. Loaders consume their section exactly; the caller verifies with
///     StateSource::finish(), turning any layout drift into a clean
///     error instead of silent corruption.
#pragma once

#include <string>

#include "sim/types.hpp"

namespace dta::sim {

class StateSink;
class StateSource;

class Component {
 public:
    Component() = default;
    explicit Component(std::string name) : name_(std::move(name)) {}
    virtual ~Component() = default;

    Component(const Component&) = default;
    Component& operator=(const Component&) = default;
    Component(Component&&) = default;
    Component& operator=(Component&&) = default;

    /// Advance one cycle and return the horizon: the earliest cycle > now
    /// at which tick() could change observable state absent new input,
    /// kIdleForever if none (see the horizon contract).  Called at most
    /// once per simulated cycle, with strictly increasing `now` (skipped
    /// cycles are never ticked).
    virtual Cycle tick(Cycle now) = 0;

    /// True when the component holds no in-flight work at all.  Once every
    /// component is quiescent, every tick must return kIdleForever.
    [[nodiscard]] virtual bool quiescent() const = 0;

    /// Account for cycles [from, to) that will never be ticked. Default:
    /// nothing to do (pure event-driven components need no per-cycle work).
    virtual void skip(Cycle from, Cycle to) {
        (void)from;
        (void)to;
    }

    /// Serialize all inter-cycle state into \p s (see the serialization
    /// contract above). Default: stateless between cycles.
    virtual void save_state(StateSink& s) const { (void)s; }

    /// Inverse of save_state() on a freshly constructed, fully wired
    /// component. Must consume the section exactly.
    virtual void load_state(StateSource& s) { (void)s; }

    /// Diagnostic label, e.g. "pe3", "noc0", "mem". Used in deadlock
    /// reports to say *which* components were non-quiescent.
    [[nodiscard]] const std::string& name() const { return name_; }
    void set_name(std::string n) { name_ = std::move(n); }

 private:
    std::string name_;
};

}  // namespace dta::sim
