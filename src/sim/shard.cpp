#include "sim/shard.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace dta::sim {

bool Shard::all_quiescent() const {
    for (const Component* c : components_) {
        if (!c->quiescent()) {
            return false;
        }
    }
    return true;
}

void Shard::fast_forward_span(Cycle from, Cycle to) {
    const ProfScope prof(hooks_.prof, ProfBuffer::kShardSlot,
                         ProfPhase::kFastforwardScan);
    for (Component* c : components_) {
        c->skip(from, to);
    }
    skipped_ += to - from;
    // Replay the gauge samples the per-cycle loop would have taken; no
    // component state changes on a skipped cycle, so every sample in the
    // span reads the current values (same replay as the single-threaded
    // Machine::fast_forward_span).
    if (hooks_.sample && hooks_.sample_interval > 0) {
        const Cycle step = hooks_.sample_interval;
        for (Cycle c = ((from + step - 1) / step) * step; c < to; c += step) {
            const ProfScope ps(hooks_.prof, ProfBuffer::kShardSlot,
                               ProfPhase::kSample);
            hooks_.sample(c);
        }
    }
    acct_next_ = to;
}

void Shard::enable_wheel(std::vector<std::uint32_t> inbound_consumers) {
    DTA_SIM_REQUIRE(wheel_ == nullptr, "enable_wheel() called twice");
    DTA_SIM_REQUIRE(inbound_consumers.size() == inbound_.size(),
                    "one consumer index per inbound channel");
    wheel_ = std::make_unique<WheelScheduler>();
    wheel_->attach(components_);
    wheel_->set_prof(hooks_.prof);
    inbound_consumers_ = std::move(inbound_consumers);
}

Cycle Shard::lookahead_hint() const {
    Cycle h = kIdleForever;
    if (!paused_ && !stuck_) {
        h = wheel_ != nullptr && wheel_->started() ? wheel_->next_due()
                                                   : acct_next_;
    }
    for (const ChannelBase* ch : inbound_) {
        Cycle d = 0;
        if (ch->peek_drain(&d)) {
            h = std::min(h, std::max(d, acct_next_));
        }
    }
    return h;
}

void Shard::wheel_span(Cycle from, Cycle to) {
    const ProfScope prof(hooks_.prof, ProfBuffer::kShardSlot,
                         ProfPhase::kFastforwardScan);
    skipped_ += to - from;
    // Replay the gauge samples the dense loop would have taken.  Lagging
    // sleepers are fine: gauges read architectural state, which skip()
    // cannot change (it only settles accounting like breakdown buckets).
    if (hooks_.sample && hooks_.sample_interval > 0) {
        const Cycle step = hooks_.sample_interval;
        for (Cycle c = ((from + step - 1) / step) * step; c < to; c += step) {
            const ProfScope ps(hooks_.prof, ProfBuffer::kShardSlot,
                               ProfPhase::kSample);
            hooks_.sample(c);
        }
    }
    acct_next_ = to;
}

void Shard::run_until_wheel(Cycle bound) {
    WheelScheduler& sched = *wheel_;
    ProfBuffer* const pb = hooks_.prof;
    stuck_ = false;
    if (hooks_.progress) {
        hooks_.progress(acct_next_);
    }
    std::uint64_t t = 0;
    if (pb != nullptr) {
        pb->take_orphan_child_ns();
        t = prof_now_ns();
    }
    const auto charge = [&](std::uint32_t slot, ProfPhase phase) {
        const std::uint64_t t2 = prof_now_ns();
        pb->add(slot, phase, t2 - t - pb->take_orphan_child_ns());
        t = t2;
    };
    if (!sched.started()) {
        sched.start(acct_next_);
    }
    // Window-entry channel arming: every entry visible now was published at
    // least one epoch ago (drain >= the window's start by the lookahead
    // bound), and entries the producer pushes *during* this window drain
    // beyond its end — so the oldest entry's stamp re-arms the consuming
    // router exactly once per window, and the router's own horizon chains
    // to later entries after each drain.
    for (std::size_t i = 0; i < inbound_.size(); ++i) {
        Cycle d = 0;
        if (inbound_[i]->peek_drain(&d)) {
            sched.wake_at(inbound_consumers_[i], std::max(d, acct_next_));
        }
    }
    while (!paused_ && acct_next_ < bound) {
        const Cycle now = acct_next_;
        if (sched.idle()) {
            // Every horizon is kIdleForever: locally indistinguishable from
            // machine-wide deadlock (another shard may owe us a packet), so
            // flag it and coast to the barrier; the coordinator decides.
            stuck_ = true;
            wheel_span(now, bound);
            if (pb != nullptr) {
                charge(ProfBuffer::kShardSlot, ProfPhase::kNextActivity);
            }
            break;
        }
        const Cycle due = sched.next_due();
        DTA_CHECK_MSG(due >= now, "wheel entry behind the shard clock");
        if (due > now) {
            wheel_span(now, std::min(due, bound));
            if (pb != nullptr) {
                charge(ProfBuffer::kShardSlot, ProfPhase::kNextActivity);
            }
            continue;
        }
        sched.run_cycle(now, pb, t);
        if (hooks_.sample && hooks_.sample_interval > 0 &&
            now % hooks_.sample_interval == 0) {
            hooks_.sample(now);
            if (pb != nullptr) {
                charge(ProfBuffer::kShardSlot, ProfPhase::kSample);
            }
        }
        if (hooks_.audit && hooks_.audit_interval > 0 &&
            now % hooks_.audit_interval == 0) {
            hooks_.audit(now);
            if (pb != nullptr) {
                charge(ProfBuffer::kShardSlot, ProfPhase::kAudit);
            }
        }
        ++ticked_;
        acct_next_ = now + 1;
        const bool quiet = all_quiescent();
        if (pb != nullptr) {
            charge(ProfBuffer::kShardSlot, ProfPhase::kQuiescence);
        }
        if (quiet) {
            paused_ = true;
            return;
        }
    }
}

void Shard::run_until(Cycle bound) {
    if (wheel_ != nullptr) {
        run_until_wheel(bound);
        return;
    }
    ProfBuffer* const pb = hooks_.prof;
    stuck_ = false;
    if (hooks_.progress) {
        hooks_.progress(acct_next_);
    }
    // Fully-chained timing: one clock read per segment boundary and zero
    // un-attributed gaps inside the loop — every nanosecond between two
    // boundaries is charged to exactly one (slot, phase).  Scopes opened
    // deeper in the call tree (channel serialisation/drain inside a tick,
    // the fast-forward scan) register as orphan child time and are
    // subtracted from the enclosing segment, keeping attribution
    // exclusive.  This chaining — rather than one RAII scope per segment —
    // is what makes per-shard coverage hold up even on an oversubscribed
    // host, where a preemption inside an instrumentation gap would charge
    // a whole scheduling quantum to nothing.
    std::uint64_t t = 0;
    if (pb != nullptr) {
        // Discard orphan time from scopes that closed before this chain
        // started (the barrier wait in EpochRunner::participate, a
        // catch-up's fast-forward scan): their spans are outside every
        // charge taken below, so subtracting them would underflow.
        pb->take_orphan_child_ns();
        t = prof_now_ns();
    }
    const auto charge = [&](std::uint32_t slot, ProfPhase phase) {
        const std::uint64_t t2 = prof_now_ns();
        pb->add(slot, phase, t2 - t - pb->take_orphan_child_ns());
        t = t2;
    };
    while (!paused_ && acct_next_ < bound) {
        const Cycle now = acct_next_;
        if (pb == nullptr) {
            for (Component* c : components_) {
                c->tick(now);
            }
        } else {
            for (std::size_t i = 0; i < components_.size(); ++i) {
                components_[i]->tick(now);
                charge(static_cast<std::uint32_t>(i + 1), ProfPhase::kTick);
            }
        }
        if (hooks_.sample && hooks_.sample_interval > 0 &&
            now % hooks_.sample_interval == 0) {
            hooks_.sample(now);
            if (pb != nullptr) {
                charge(ProfBuffer::kShardSlot, ProfPhase::kSample);
            }
        }
        if (hooks_.audit && hooks_.audit_interval > 0 &&
            now % hooks_.audit_interval == 0) {
            hooks_.audit(now);
            if (pb != nullptr) {
                charge(ProfBuffer::kShardSlot, ProfPhase::kAudit);
            }
        }
        ++ticked_;
        acct_next_ = now + 1;
        // Quiescent with empty inbound channels (channel emptiness is part
        // of the receiving router's quiescent()): this cycle is a candidate
        // for the global end.  Freeze the clock; the coordinator wakes us
        // if a cross-shard packet shows up, or catches us up to the exact
        // end once every shard agrees.
        const bool quiet = all_quiescent();
        if (pb != nullptr) {
            charge(ProfBuffer::kShardSlot, ProfPhase::kQuiescence);
        }
        if (quiet) {
            paused_ = true;
            return;
        }
        const std::uint64_t fp = fingerprint();
        // Same gating as the single-threaded loop: horizons are consulted
        // only when the tick just taken made no shard-local progress.
        if (hooks_.fast_forward && fp == prev_fp_) {
            Cycle h = kIdleForever;
            for (const Component* c : components_) {
                h = std::min(h, c->next_activity(now));
                if (h <= acct_next_) {
                    break;  // can't skip anything; stop asking
                }
            }
            if (h == kIdleForever) {
                // Frozen without input.  Locally that is indistinguishable
                // from a machine-wide deadlock — another shard may still
                // owe us a packet — so flag it and coast to the barrier;
                // the coordinator decides (idle-forever deadlock iff every
                // shard is paused or stuck and every channel is empty).
                stuck_ = true;
                h = bound;
            }
            DTA_CHECK_MSG(h > now, "component horizon not in the future");
            h = std::min(h, bound);
            if (h > acct_next_) {
                fast_forward_span(acct_next_, h);
            }
        }
        prev_fp_ = fp;
        // The fingerprint, the horizon scan, and the loop tail all belong
        // to the idle-detection machinery; the fast-forward scan inside
        // (its own scope) was already claimed and is subtracted as orphan
        // child time.
        if (pb != nullptr) {
            charge(ProfBuffer::kShardSlot, ProfPhase::kNextActivity);
        }
    }
}

void Shard::catch_up(Cycle to) {
    if (wheel_ != nullptr) {
        // The shard clock reaching `to` is NOT enough under the wheel:
        // sleepers' per-component accounting lags acct_next_, so the
        // scheduler must settle every component even when this shard is
        // the one that defined the global end cycle.
        {
            const ProfScope prof(hooks_.prof, ProfBuffer::kShardSlot,
                                 ProfPhase::kFastforwardScan);
            wheel_->catch_up(to);
        }
        if (acct_next_ < to) {
            wheel_span(acct_next_, to);
        }
        return;
    }
    if (acct_next_ >= to) {
        return;
    }
    fast_forward_span(acct_next_, to);
}

}  // namespace dta::sim
