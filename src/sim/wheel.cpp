#include "sim/wheel.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace dta::sim {

void WheelScheduler::attach(const std::vector<Component*>& components) {
    comps_ = components;
    due_.assign(comps_.size(), kIdleForever);
    acct_.assign(comps_.size(), 0);
}

void WheelScheduler::start(Cycle now) {
    DTA_CHECK_MSG(!comps_.empty(), "wheel scheduler started unattached");
    acct_.assign(comps_.size(), now);
    arm_all(now);
    now_ = now;
    stats_.enabled = true;
    stats_.inserts += comps_.size();
    stats_.peak_occupancy = std::max(stats_.peak_occupancy, armed_);
    started_ = true;
}

void WheelScheduler::arm_all(Cycle at) {
    std::fill(due_.begin(), due_.end(), at);
    armed_ = comps_.size();
    next_ = at;
}

void WheelScheduler::wake(std::uint32_t component) {
    if (!started_) {
        return;  // pre-run launch() pushes; start() arms everyone anyway
    }
    // List-order rule: while cycle now_ is in flight, a consumer with a
    // higher list index than the producer under the cursor has not been
    // reached by the pass yet — a per-cycle loop would have it observe the
    // push at now_.  Anyone else sees it at now_ + 1.
    const Cycle at =
        (in_cycle_ && component > cursor_) ? now_ : now_ + 1;
    Cycle& due = due_[component];
    if (due <= at) {
        return;  // already scheduled at least that early
    }
    ++stats_.wakes;
    const ProfScope prof(pb_, ProfBuffer::kShardSlot,
                         ProfPhase::kWheelInsert);
    if (due == kIdleForever) {
        ++armed_;
        stats_.peak_occupancy = std::max(stats_.peak_occupancy, armed_);
    }
    due = at;
    if (at != now_) {
        // The pass has already folded this index (or none is in flight):
        // the kept minimum must learn the earlier cycle here.
        ++stats_.inserts;
        next_ = std::min(next_, at);
    }
}

std::uint32_t WheelScheduler::run_cycle(Cycle at, ProfBuffer* pb,
                                        std::uint64_t& t) {
    // A component due before `at` would never match due_[i] == at again.
    DTA_CHECK_MSG(at <= next_, "scheduler skipped a due cycle");
    now_ = at;
    in_cycle_ = true;
    next_ = kIdleForever;  // wakes below the cursor lower it to at + 1
    Cycle next = kIdleForever;
    std::uint32_t ticked = 0;
    const auto n = static_cast<std::uint32_t>(due_.size());
    // Ascending pass.  A same-cycle wake only targets an index above the
    // cursor, which the pass has not read yet; it reads due_[i] afresh.
    for (std::uint32_t i = 0; i < n; ++i) {
        if (due_[i] != at) {
            next = std::min(next, due_[i]);
            continue;
        }
        if (pb != nullptr) {
            prof_charge(pb, t, ProfBuffer::kShardSlot, ProfPhase::kWheelPop);
        }
        cursor_ = i;
        Component* const c = comps_[i];
        if (acct_[i] < at) {
            c->skip(acct_[i], at);
        }
        const Cycle h = c->tick(at);
        acct_[i] = at + 1;
        if (pb != nullptr) {
            prof_charge(pb, t, i + 1, ProfPhase::kTick);
        }
        DTA_CHECK_MSG(h > at, "component horizon not in the future");
        due_[i] = h;
        if (h == kIdleForever) {
            --armed_;
        } else {
            ++stats_.inserts;
            next = std::min(next, h);
        }
        ++ticked;
    }
    if (pb != nullptr) {
        prof_charge(pb, t, ProfBuffer::kShardSlot, ProfPhase::kWheelPop);
    }
    next_ = std::min(next_, next);
    cursor_ = kNoCursor;
    in_cycle_ = false;
    stats_.pops += ticked;
    if (ticked > 0) {
        ++stats_.active_cycles;
    }
    return ticked;
}

void WheelScheduler::catch_up(Cycle to) {
    if (!started_) {
        return;
    }
    for (std::uint32_t i = 0; i < comps_.size(); ++i) {
        if (acct_[i] < to) {
            comps_[i]->skip(acct_[i], to);
            acct_[i] = to;
        }
    }
}

}  // namespace dta::sim
