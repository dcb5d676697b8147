#include "sim/wheel.hpp"

#include <algorithm>
#include <bit>

#include "sim/check.hpp"

namespace dta::sim {

void WheelStats::merge_from(const WheelStats& o, std::uint32_t shard) {
    enabled = enabled || o.enabled;
    pops += o.pops;
    inserts += o.inserts;
    rearms += o.rearms;
    wakes += o.wakes;
    active_cycles += o.active_cycles;
    dense_cycles += o.dense_cycles;
    peak_occupancy = std::max(peak_occupancy, o.peak_occupancy);
    for (Sample s : o.samples) {
        s.shard = shard;
        samples.push_back(s);
    }
    std::stable_sort(samples.begin(), samples.end(),
                     [](const Sample& a, const Sample& b) {
                         return a.cycle != b.cycle ? a.cycle < b.cycle
                                                   : a.shard < b.shard;
                     });
}

// ---------------------------------------------------------------------------
// TimingWheel

void TimingWheel::insert(Cycle at, std::uint32_t id) {
    DTA_CHECK_MSG(at >= pos_, "timing wheel insert in the past");
    ++entries_;
    if (page_of(at) == page_of(pos_)) {
        l0_[at & (kSlots - 1)].push_back(id);
        ++l0_count_;
    } else if (epoch_of(at) == epoch_of(pos_)) {
        l1_[page_of(at) & (kSlots - 1)].push_back({at, id});
        ++l1_count_;
    } else {
        overflow_.push_back({at, id});
    }
}

void TimingWheel::refill_l1_from_overflow() {
    // Entries whose epoch has come into range cascade down; later ones
    // stay.  An entry already behind the new position is a stale ghost and
    // is dropped outright.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < overflow_.size(); ++i) {
        const Entry e = overflow_[i];
        if (epoch_of(e.at) > epoch_of(pos_)) {
            overflow_[kept++] = e;
        } else if (e.at < pos_) {
            --entries_;
        } else if (page_of(e.at) == page_of(pos_)) {
            l0_[e.at & (kSlots - 1)].push_back(e.id);
            ++l0_count_;
        } else {
            l1_[page_of(e.at) & (kSlots - 1)].push_back(e);
            ++l1_count_;
        }
    }
    overflow_.resize(kept);
}

void TimingWheel::refill_l0_from_l1() {
    // Cascade the current page's entries down.  The slot may also hold
    // entries for a future lap of L1 (same slot index, different page) —
    // those stay — and stale ghosts from pages already passed, dropped here.
    auto& slot = l1_[page_of(pos_) & (kSlots - 1)];
    std::size_t kept = 0;
    for (const Entry& e : slot) {
        if (e.at < pos_) {
            --entries_;
            --l1_count_;
        } else if (page_of(e.at) == page_of(pos_)) {
            l0_[e.at & (kSlots - 1)].push_back(e.id);
            ++l0_count_;
            --l1_count_;
        } else {
            slot[kept++] = e;
        }
    }
    slot.resize(kept);
}

void TimingWheel::advance(Cycle at) {
    DTA_CHECK_MSG(at >= pos_, "timing wheel moved backwards");
    if (page_of(at) == page_of(pos_)) {
        // Slots jumped over hold only stale ids (the caller never advances
        // past a live entry); drop them so a later lap of the page ring and
        // next_due() never see them.
        for (Cycle c = pos_; c < at && l0_count_ > 0; ++c) {
            auto& slot = l0_[c & (kSlots - 1)];
            entries_ -= slot.size();
            l0_count_ -= slot.size();
            slot.clear();
        }
        pos_ = at;
        return;
    }
    // Entering a new page: anything still in L0 is stale by the same
    // argument, so the whole level can be dropped before cascading in.
    for (auto& slot : l0_) {
        entries_ -= slot.size();
        slot.clear();
    }
    l0_count_ = 0;
    const bool new_epoch = epoch_of(at) != epoch_of(pos_);
    pos_ = at;
    if (new_epoch) {
        // One level up: L1 leftovers behind the new position are stale.
        // Entries for future epochs may legitimately sit in L1 slots
        // (insert files by page-within-epoch), so filter rather than clear.
        for (auto& slot : l1_) {
            std::size_t kept = 0;
            for (const Entry& e : slot) {
                if (e.at >= pos_) {
                    slot[kept++] = e;
                }
            }
            entries_ -= slot.size() - kept;
            l1_count_ -= slot.size() - kept;
            slot.resize(kept);
        }
        refill_l1_from_overflow();
    } else {
        // Same epoch, new page: ghosts in L1 slots for the pages jumped
        // over would otherwise linger a full L1 lap and pollute next_due().
        for (auto& slot : l1_) {
            std::size_t kept = 0;
            for (const Entry& e : slot) {
                if (e.at >= pos_) {
                    slot[kept++] = e;
                } else {
                    --entries_;
                    --l1_count_;
                }
            }
            slot.resize(kept);
        }
    }
    refill_l0_from_l1();
}

void TimingWheel::collect(Cycle at, std::vector<std::uint32_t>& out) {
    advance(at);
    auto& slot = l0_[at & (kSlots - 1)];
    for (const std::uint32_t id : slot) {
        out.push_back(id);
    }
    entries_ -= slot.size();
    l0_count_ -= slot.size();
    slot.clear();
}

Cycle TimingWheel::next_due() const {
    if (entries_ == 0) {
        return kCycleNever;
    }
    if (l0_count_ > 0) {
        // Every L0 entry sits in [pos_, end of page] (stale ids are purged
        // on advance), so the probe terminates within the page.
        const Cycle page_end = ((page_of(pos_) + 1) << kPageShift);
        for (Cycle c = pos_; c < page_end; ++c) {
            if (!l0_[c & (kSlots - 1)].empty()) {
                return c;
            }
        }
        DTA_CHECK_MSG(false, "timing wheel L0 count out of sync");
    }
    Cycle best = kCycleNever;
    if (l1_count_ > 0) {
        for (const auto& slot : l1_) {
            for (const Entry& e : slot) {
                best = std::min(best, e.at);
            }
        }
    }
    for (const Entry& e : overflow_) {
        best = std::min(best, e.at);
    }
    return best;
}

void TimingWheel::reset(Cycle at) {
    for (auto& slot : l0_) {
        slot.clear();
    }
    for (auto& slot : l1_) {
        slot.clear();
    }
    overflow_.clear();
    entries_ = 0;
    l0_count_ = 0;
    l1_count_ = 0;
    pos_ = at;
}

// ---------------------------------------------------------------------------
// WheelScheduler

void WheelScheduler::attach(const std::vector<Component*>& components) {
    comps_ = components;
    due_.assign(comps_.size(), kIdleForever);
    acct_.assign(comps_.size(), 0);
    due_now_.assign((comps_.size() + 63) / 64, 0);
    lane_.assign(due_now_.size(), 0);
    scratch_.reserve(comps_.size());
}

void WheelScheduler::start(Cycle now) {
    DTA_CHECK_MSG(!comps_.empty(), "wheel scheduler started unattached");
    wheel_.reset(now);
    for (std::uint32_t i = 0; i < comps_.size(); ++i) {
        due_[i] = now;
        acct_[i] = now;
        wheel_.insert(now, i);
    }
    armed_ = comps_.size();
    now_ = now;
    stats_.enabled = true;
    stats_.inserts += comps_.size();
    stats_.peak_occupancy = std::max(stats_.peak_occupancy, armed_);
    started_ = true;
}

void WheelScheduler::arm(std::uint32_t i, Cycle at) {
    if (due_[i] == kIdleForever) {
        ++armed_;
        stats_.peak_occupancy = std::max(stats_.peak_occupancy, armed_);
    }
    due_[i] = at;
    ++stats_.inserts;
    if (at == now_ + 1) {
        lane_at_ = at;
        lane_live_ = true;
        set_bit(lane_, i);
    } else {
        wheel_.insert(at, i);
    }
}

void WheelScheduler::wake(std::uint32_t component) {
    if (!started_) {
        return;  // pre-run launch() pushes; start() arms everyone anyway
    }
    // Dense-order rule: while cycle now_ is in flight, a consumer with a
    // higher list index than the producer under the cursor has not been
    // visited yet this cycle — the dense loop would have it observe the push
    // at now_.  Anyone else sees it at now_ + 1.
    const Cycle at =
        (in_cycle_ && component > cursor_) ? now_ : now_ + 1;
    if (due_[component] <= at) {
        return;  // already scheduled at least that early
    }
    ++stats_.wakes;
    const ProfScope prof(pb_, ProfBuffer::kShardSlot,
                         ProfPhase::kWheelInsert);
    if (in_cycle_ && at == now_) {
        if (due_[component] == kIdleForever) {
            ++armed_;
            stats_.peak_occupancy = std::max(stats_.peak_occupancy, armed_);
        }
        due_[component] = at;
        set_bit(due_now_, component);
    } else {
        arm(component, at);
    }
}

void WheelScheduler::wake_at(std::uint32_t component, Cycle at) {
    if (due_[component] <= at) {
        return;
    }
    ++stats_.wakes;
    const ProfScope prof(pb_, ProfBuffer::kShardSlot,
                         ProfPhase::kWheelInsert);
    arm(component, at);
}

void WheelScheduler::drain_lane(Cycle at) {
    // The run loop never passes next_due(), which is the lane's cycle while
    // the lane holds a bit.
    DTA_CHECK_MSG(lane_at_ == at, "wheel lane skipped");
    for (std::size_t w = 0; w < lane_.size(); ++w) {
        for (std::uint64_t bits = lane_[w]; bits != 0; bits &= bits - 1) {
            const auto i = static_cast<std::uint32_t>(
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
            if (due_[i] == at) {  // the filter stale calendar entries get
                set_bit(due_now_, i);
            }
        }
        lane_[w] = 0;
    }
    lane_live_ = false;
}

std::uint32_t WheelScheduler::run_cycle(Cycle at, ProfBuffer* pb,
                                        std::uint64_t& t) {
    if (lane_live_) {
        drain_lane(at);
    }
    now_ = at;
    in_cycle_ = true;
    scratch_.clear();
    wheel_.collect(at, scratch_);
    for (const std::uint32_t i : scratch_) {
        if (due_[i] == at) {
            set_bit(due_now_, i);  // a duplicate entry sets the same bit
        }
        // due_[i] != at: a stale entry from a wake that re-armed earlier.
    }
    if (pb != nullptr) {
        const std::uint64_t t2 = prof_now_ns();
        pb->add(ProfBuffer::kShardSlot, ProfPhase::kWheelPop,
                t2 - t - pb->take_orphan_child_ns());
        t = t2;
    }
    std::uint32_t ticked = 0;
    // Ascending scan over the due set.  A same-cycle wake only targets an
    // index above the cursor, so it sets a bit in the current word (re-read
    // after every visit) or a later one; the scan never looks back, and a
    // component woken twice still has one bit.
    std::size_t w = 0;
    while (true) {
        while (w < due_now_.size() && due_now_[w] == 0) {
            ++w;
        }
        if (w == due_now_.size()) {
            break;
        }
        const auto i = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(due_now_[w])));
        due_now_[w] &= due_now_[w] - 1;  // clears bit i, the lowest set
        cursor_ = i;
        Component* const c = comps_[i];
        if (acct_[i] < at) {
            c->skip(acct_[i], at);
        }
        c->tick(at);
        acct_[i] = at + 1;
        if (pb != nullptr) {
            const std::uint64_t t2 = prof_now_ns();
            pb->add(i + 1, ProfPhase::kTick,
                    t2 - t - pb->take_orphan_child_ns());
            t = t2;
        }
        const Cycle h = c->next_activity(at);
        DTA_CHECK_MSG(h > at, "component horizon not in the future");
        ++stats_.rearms;
        --armed_;  // finite due_ consumed by this visit
        due_[i] = kIdleForever;
        if (h != kIdleForever) {
            arm(i, h);
        }
        if (pb != nullptr) {
            const std::uint64_t t2 = prof_now_ns();
            pb->add(ProfBuffer::kShardSlot, ProfPhase::kRearm,
                    t2 - t - pb->take_orphan_child_ns());
            t = t2;
        }
        ++ticked;
    }
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
