/// \file shard.hpp
/// \brief One host thread's slice of the machine: a contiguous group of
///        components ticked by a private clock between epoch barriers.
///
/// A Shard owns an ordered component list (the same relative order those
/// components have in the single-threaded scheduler list) plus the inbound
/// cross-shard channels feeding it.  Between barriers it free-runs — tick,
/// quiescence check, fingerprint-gated idle fast-forward — exactly like the
/// single-threaded Machine::run() loop, but bounded by the epoch horizon.
///
/// Accounting invariant: every cycle in [0, acct_next_) has been accounted
/// exactly once on every component, either by tick() or by skip().  The
/// epoch runner relies on this to make the merged RunResult bit-identical
/// to the single-threaded reference: a shard that goes quiescent *pauses*
/// (freezes acct_next_) instead of burning idle cycles past the eventual
/// global end, and is caught up to the exact end cycle once that end is
/// known (see EpochRunner).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/channel.hpp"
#include "sim/component.hpp"
#include "sim/prof.hpp"
#include "sim/types.hpp"
#include "sim/wheel.hpp"

namespace dta::sim {

/// A schedulable slice of the machine.
class Shard {
public:
    /// Machine-provided callbacks, so the shard stays generic.
    struct Hooks {
        /// Shard-local activity fingerprint (same counters the
        /// single-threaded loop sums machine-wide; the coordinator adds the
        /// per-shard values to recover the global fingerprint).
        std::function<std::uint64_t()> fingerprint;
        /// Gauge sampler; invoked at every multiple of sample_interval the
        /// shard accounts (null when metrics are off).
        std::function<void(Cycle)> sample;
        Cycle sample_interval = 0;  ///< 0 disables sampling
        /// Shard-local invariant audit (sim/audit.hpp); invoked at every
        /// multiple of audit_interval the shard ticks.  Not replayed over
        /// fast-forwarded spans: no component state changes on a skipped
        /// cycle, so an audit that passed when the span began would pass at
        /// every cycle inside it.
        std::function<void(Cycle)> audit;
        Cycle audit_interval = 0;  ///< 0 disables auditing
        /// Progress reporter; invoked once per run_until call (i.e. about
        /// once per epoch) with the shard's clock.  The callee does its own
        /// interval thresholding and must touch only shard-local state.
        std::function<void(Cycle)> progress;
        bool fast_forward = true;
        /// Host-time profiling buffer (sim/prof.hpp); null = profiling off
        /// (every site then costs one null check).  Strictly shard-local:
        /// only this shard's host thread writes it mid-run.
        ProfBuffer* prof = nullptr;
    };

    Shard(std::string name, std::vector<Component*> components,
          std::vector<ChannelBase*> inbound, Hooks hooks)
        : name_(std::move(name)),
          components_(std::move(components)),
          inbound_(std::move(inbound)),
          hooks_(std::move(hooks)) {}

    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    /// Free-runs the shard up to (exclusive) \p bound, the next epoch
    /// boundary.  Returns early when the shard goes quiescent (pauses).
    void run_until(Cycle bound);

    /// Accounts the remaining cycles [acct_next_, to) by skipping — called
    /// by the coordinator once the global end cycle is known.  Valid only
    /// while the shard is quiescent (guaranteed when paused).
    void catch_up(Cycle to);

    /// Switches run_until to the event-driven scheduler (sim/wheel.hpp).
    /// \p inbound_consumers maps each inbound channel (same order as the
    /// ctor's inbound list) to the scheduler index of its consuming router;
    /// at every window entry the oldest entry's drain stamp re-arms that
    /// router, which is what replaces "tick every cycle so the router polls
    /// its channel".  Call once, before the first run_until.
    void enable_wheel(std::vector<std::uint32_t> inbound_consumers);
    /// The shard's scheduler (null when running the dense loop) — the
    /// Machine binds component wake hooks to it, and samples it.
    [[nodiscard]] WheelScheduler* wheel() const { return wheel_.get(); }

    /// Earliest cycle at which this shard could next act, as visible at the
    /// epoch barrier: the wheel's earliest entry (the shard's own clock
    /// under the dense loop), folded with the oldest
    /// inbound-channel drain stamp; kIdleForever when paused or stuck.  The
    /// coordinator takes the minimum over shards to stretch the next epoch
    /// bound across globally-idle stretches (sim/epoch.cpp).
    [[nodiscard]] Cycle lookahead_hint() const;

    /// Next unaccounted cycle; the shard's private clock.
    [[nodiscard]] Cycle acct_next() const { return acct_next_; }
    /// Paused: quiescent with empty inbound channels; awaits wake().
    [[nodiscard]] bool paused() const { return paused_; }
    /// Stuck: non-quiescent but idle forever absent cross-shard input.
    [[nodiscard]] bool stuck() const { return stuck_; }
    void wake() { paused_ = false; }

    /// Resets the private clock after a snapshot restore: \p at is the next
    /// unaccounted cycle, \p ticked / \p skipped the host-effort split so
    /// far (restored so merged RunResult counters stay exact).  The
    /// fingerprint gate re-arms, exactly as at the start of a fresh run.
    void restore_clock(Cycle at, Cycle ticked, Cycle skipped) {
        acct_next_ = at;
        ticked_ = ticked;
        skipped_ = skipped;
        paused_ = false;
        stuck_ = false;
        prev_fp_ = ~0ull;
    }

    [[nodiscard]] bool inbound_empty() const {
        for (const ChannelBase* ch : inbound_) {
            if (!ch->empty()) {
                return false;
            }
        }
        return true;
    }

    [[nodiscard]] std::uint64_t fingerprint() const {
        return hooks_.fingerprint ? hooks_.fingerprint() : 0;
    }

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] const std::vector<Component*>& components() const {
        return components_;
    }
    /// The profiling buffer (null when profiling is off); the epoch runner
    /// charges barrier waits and the shard's wall clock through it.
    [[nodiscard]] ProfBuffer* prof() const { return hooks_.prof; }
    /// Cycles advanced by ticking / by skipping (host-effort split; the
    /// simulated results are identical either way).
    [[nodiscard]] Cycle cycles_ticked() const { return ticked_; }
    [[nodiscard]] Cycle cycles_skipped() const { return skipped_; }
    /// The epoch the shard's clock is in (diagnostics).
    [[nodiscard]] Cycle epoch_of(Cycle epoch_len) const {
        return epoch_len == 0 || acct_next_ == 0
                   ? 0
                   : (acct_next_ - 1) / epoch_len;
    }

private:
    void fast_forward_span(Cycle from, Cycle to);
    void run_until_wheel(Cycle bound);
    /// Advances the clock over the inactive span [from, to): state is
    /// frozen, so only the dense loop's per-cycle side effects (gauge
    /// samples) are replayed; component skip() bookkeeping stays lazy.
    void wheel_span(Cycle from, Cycle to);
    [[nodiscard]] bool all_quiescent() const;

    std::string name_;
    std::vector<Component*> components_;
    std::vector<ChannelBase*> inbound_;
    Hooks hooks_;

    std::unique_ptr<WheelScheduler> wheel_;  ///< null = dense loop
    std::vector<std::uint32_t> inbound_consumers_;

    Cycle acct_next_ = 0;
    bool paused_ = false;
    bool stuck_ = false;
    std::uint64_t prev_fp_ = ~0ull;  ///< gate: last ticked cycle's fingerprint
    Cycle ticked_ = 0;
    Cycle skipped_ = 0;
};

}  // namespace dta::sim
