// Unit tests for sim::WheelScheduler, driven by scripted fake components:
// visit order within a cycle, same-cycle and next-cycle wakes, idle
// detection, catch-up accounting, the exactness of next_due(), and a seeded
// differential run against a per-cycle reference.  ("Lane" and "calendar"
// in the older tests name arms at now+1 and arms further out.)
#include "sim/wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace dta::sim {
namespace {

struct Visit {
    Cycle cycle;
    std::uint32_t id;
    bool operator==(const Visit&) const = default;
};

struct Span {
    Cycle from;
    Cycle to;
    bool operator==(const Span&) const = default;
};

/// A component whose horizons come from a script: each visit consumes the
/// next delta (kIdleForever for "sleep until woken"; an empty script
/// sleeps forever).  Visits go to a shared log, skips to its own.
class Scripted final : public Component {
public:
    Scripted(std::uint32_t id, std::vector<Visit>* log)
        : Component(std::string(1, 'c') += std::to_string(id)),
          id_(id),
          log_(log) {}

    Cycle tick(Cycle now) override {
        log_->push_back({now, id_});
        Cycle next = kIdleForever;
        if (!script_.empty()) {
            const Cycle d = script_.front();
            script_.pop_front();
            next = d == kIdleForever ? kIdleForever : now + d;
        }
        if (on_tick) {
            on_tick(now);
        }
        return next;
    }
    void skip(Cycle from, Cycle to) override { skips.push_back({from, to}); }
    [[nodiscard]] bool quiescent() const override { return false; }

    /// Appends horizon deltas for the next visits.
    void then(std::initializer_list<Cycle> deltas) {
        script_.insert(script_.end(), deltas.begin(), deltas.end());
    }

    std::function<void(Cycle)> on_tick;
    std::vector<Span> skips;

private:
    std::uint32_t id_;
    std::vector<Visit>* log_;
    std::deque<Cycle> script_;
};

/// N scripted components attached to one scheduler, started at cycle 0.
struct Rig {
    explicit Rig(std::uint32_t n) {
        std::vector<Component*> list;
        for (std::uint32_t i = 0; i < n; ++i) {
            comps.push_back(std::make_unique<Scripted>(i, &log));
            list.push_back(comps.back().get());
        }
        sched.attach(list);
    }
    Scripted& operator[](std::size_t i) { return *comps[i]; }

    /// Runs cycles through next_due() until \p last (inclusive) or idle.
    void run_to(Cycle last) {
        if (!sched.started()) {
            sched.start(0);
            now = 0;
        }
        std::uint64_t t = 0;
        while (!sched.idle() && now <= last) {
            sched.run_cycle(now, nullptr, t);
            now = sched.next_due();
        }
    }
    /// Visits logged at cycle \p c, in visit order.
    [[nodiscard]] std::vector<std::uint32_t> at(Cycle c) const {
        std::vector<std::uint32_t> ids;
        for (const Visit& v : log) {
            if (v.cycle == c) {
                ids.push_back(v.id);
            }
        }
        return ids;
    }

    std::vector<Visit> log;
    std::vector<std::unique_ptr<Scripted>> comps;
    WheelScheduler sched;
    Cycle now = 0;
};

using Ids = std::vector<std::uint32_t>;

TEST(WheelScheduler, LaneAndCalendarEntriesRunInAscendingIndex) {
    // Cycle 0: c0 and c2 arm at +2 (calendar), c1 and c3 at +1 (lane).
    // Cycle 1: c1 and c3 re-arm at +1, into the lane for cycle 2.  Cycle 2
    // then holds two calendar and two lane entries.
    Rig r(4);
    r[0].then({2});
    r[1].then({1, 1});
    r[2].then({2});
    r[3].then({1, 1});
    r.run_to(2);
    EXPECT_EQ(r.at(0), (Ids{0, 1, 2, 3}));
    EXPECT_EQ(r.at(1), (Ids{1, 3}));
    EXPECT_EQ(r.at(2), (Ids{0, 1, 2, 3}));
    EXPECT_TRUE(r.sched.idle());
}

TEST(WheelScheduler, SameCycleWakeJoinsHigherIndexLowerGoesToLane) {
    // c1 wakes at cycle 5; its tick pushes to c2 (higher index: the dense
    // loop would still reach c2 this cycle) and to c0 (lower index: the
    // dense loop already passed it, so it sees the push next cycle).
    Rig r(3);
    r[1].then({5});
    r[1].on_tick = [&r](Cycle now) {
        if (now == 5) {
            r.sched.wake(2);
            r.sched.wake(0);
        }
    };
    r.sched.start(0);
    std::uint64_t t = 0;
    r.sched.run_cycle(0, nullptr, t);
    ASSERT_EQ(r.sched.next_due(), 5u);
    r.sched.run_cycle(5, nullptr, t);
    EXPECT_EQ(r.at(5), (Ids{1, 2}));
    EXPECT_EQ(r.sched.next_due(), 6u);
    EXPECT_EQ(r.sched.armed(), 1u);
    r.sched.run_cycle(6, nullptr, t);
    EXPECT_EQ(r.at(6), (Ids{0}));
    EXPECT_EQ(r.sched.stats().wakes, 2u);
    EXPECT_TRUE(r.sched.idle());
}

TEST(WheelScheduler, SupersededEntriesAreVisitedOnce) {
    // c2 re-arms at +1 every visit, so from cycle 1 on it is due through
    // the lane.  At cycle 3 c0 wakes it in the same cycle, before the scan
    // reaches it: that wake is already covered and must not add a visit.
    // c1 arms at cycle 10 on the calendar; a wake from c2 at cycle 2 pulls
    // it to cycle 3 through the lane, and the superseded calendar entry at
    // cycle 10 must not visit it again.
    Rig r(3);
    r[0].then({3, 20});  // then stays armed past the stale entry at 10
    r[0].on_tick = [&r](Cycle now) {
        if (now == 3) {
            r.sched.wake(2);
        }
    };
    r[1].then({10});
    r[2].then({1, 1, 1, 1});
    r[2].on_tick = [&r](Cycle now) {
        if (now == 2) {
            r.sched.wake(1);
        }
    };
    r.run_to(20);
    EXPECT_EQ(r.at(3), (Ids{0, 1, 2}));
    EXPECT_EQ(r.at(10), Ids{});
    std::size_t c2_visits = 0;
    for (const Visit& v : r.log) {
        c2_visits += v.id == 2 ? 1 : 0;
    }
    EXPECT_EQ(c2_visits, 5u);  // cycles 0..4
    EXPECT_EQ(r.sched.stats().wakes, 1u);
}

TEST(WheelScheduler, NextDueIsTheLaneCycleWhileTheLaneHoldsABit) {
    Rig r(2);
    r[0].then({1, 50});
    r[1].then({100});
    r.sched.start(0);
    std::uint64_t t = 0;
    r.sched.run_cycle(0, nullptr, t);
    // c0 sits in the lane for cycle 1, c1 on the calendar at 100.
    EXPECT_EQ(r.sched.next_due(), 1u);
    r.sched.run_cycle(1, nullptr, t);
    // The lane is empty again; c0 moved to the calendar at 51.
    EXPECT_EQ(r.sched.next_due(), 51u);
    EXPECT_EQ(r.sched.stats().inserts, 2u + 3u);  // start + three re-arms
}

TEST(WheelScheduler, IdleOnceEveryHorizonIsIdleForever) {
    Rig r(3);
    r[0].then({1, kIdleForever});
    r[1].then({4});
    r.run_to(100);
    EXPECT_TRUE(r.sched.idle());
    EXPECT_EQ(r.sched.armed(), 0u);
    EXPECT_EQ(r.log, (std::vector<Visit>{
                         {0, 0}, {0, 1}, {0, 2}, {1, 0}, {4, 1}}));
    // A wake arms a sleeper again.
    r.sched.wake(2);
    EXPECT_FALSE(r.sched.idle());
    EXPECT_EQ(r.sched.next_due(), 5u);
}

TEST(WheelScheduler, ArmAllAfterEachPassTicksEveryComponentEveryCycle) {
    // The per-cycle reference policy: whatever the horizons say (c0 far
    // out, c1 asleep, c2 next cycle), re-arming everyone at now + 1 after
    // each pass visits all three every cycle in index order, with no skip.
    Rig r(3);
    r[0].then({50, 50, 50});
    r[1].then({kIdleForever, kIdleForever, kIdleForever});
    r[2].then({1, 1, 1});
    r.sched.start(0);
    std::uint64_t t = 0;
    for (Cycle now = 0; now < 3; ++now) {
        r.sched.run_cycle(now, nullptr, t);
        r.sched.arm_all(now + 1);
        EXPECT_EQ(r.sched.next_due(), now + 1);
        EXPECT_FALSE(r.sched.idle());
    }
    for (Cycle c = 0; c < 3; ++c) {
        EXPECT_EQ(r.at(c), (Ids{0, 1, 2})) << "cycle " << c;
    }
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(r[i].skips.empty()) << "c" << i;
    }
}

TEST(WheelScheduler, CatchUpAppliesExactSkipSpans) {
    // c0 ticks every cycle; c1 sleeps from cycle 1 to 10, then forever.
    Rig r(2);
    r[0].then({1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, kIdleForever});
    r[1].then({10, kIdleForever});
    r.run_to(30);
    ASSERT_TRUE(r.sched.idle());
    EXPECT_TRUE(r[0].skips.empty());
    EXPECT_EQ(r[1].skips, (std::vector<Span>{{1, 10}}));
    r.sched.catch_up(20);
    EXPECT_EQ(r[0].skips, (std::vector<Span>{{12, 20}}));
    EXPECT_EQ(r[1].skips, (std::vector<Span>{{1, 10}, {11, 20}}));
    // Already accounted: a second catch-up to the same cycle is a no-op.
    r.sched.catch_up(20);
    EXPECT_EQ(r[0].skips.size(), 1u);
    EXPECT_EQ(r[1].skips.size(), 2u);
}

TEST(WheelScheduler, NextDueSkipsSupersededArms) {
    // The script of SupersededEntriesAreVisitedOnce, stepped through
    // next_due().  c1's arm at cycle 10 was superseded at cycle 2 by the
    // wake that pulled it to cycle 3, so nothing is due at 10: next_due()
    // must go from 4 straight to c0's 23, and every cycle run ticks.
    Rig r(3);
    r[0].then({3, 20});
    r[0].on_tick = [&r](Cycle now) {
        if (now == 3) {
            r.sched.wake(2);
        }
    };
    r[1].then({10});
    r[2].then({1, 1, 1, 1});
    r[2].on_tick = [&r](Cycle now) {
        if (now == 2) {
            r.sched.wake(1);
        }
    };
    r.sched.start(0);
    std::vector<Cycle> cycles;
    std::uint64_t t = 0;
    for (Cycle now = 0; !r.sched.idle(); now = r.sched.next_due()) {
        cycles.push_back(now);
        EXPECT_GT(r.sched.run_cycle(now, nullptr, t), 0u)
            << "nothing due at cycle " << now;
    }
    EXPECT_EQ(cycles, (std::vector<Cycle>{0, 1, 2, 3, 4, 23}));
    EXPECT_EQ(r.sched.stats().active_cycles, 6u);
}

/// The scheduler's contract stepped the slow way: every cycle, every
/// component due then is visited in ascending index (catch-up skip, tick,
/// re-arm), and wakes follow the dense-order rule.  Counts WheelStats as
/// WheelStats documents them; occupancy is recounted from the due table.
class PerCycleReference final : public Waker {
public:
    explicit PerCycleReference(std::vector<Component*> comps)
        : comps_(std::move(comps)),
          due_(comps_.size(), 0),
          acct_(comps_.size(), 0) {
        stats.enabled = true;
        stats.inserts = comps_.size();
        stats.peak_occupancy = comps_.size();
    }

    /// Runs cycle \p at; returns the number of components ticked.
    std::uint32_t run_cycle(Cycle at) {
        now_ = at;
        in_cycle_ = true;
        std::uint32_t ticked = 0;
        for (cursor_ = 0; cursor_ < comps_.size(); ++cursor_) {
            const std::uint32_t i = cursor_;
            if (due_[i] != at) {
                continue;
            }
            if (acct_[i] < at) {
                comps_[i]->skip(acct_[i], at);
            }
            due_[i] = comps_[i]->tick(at);
            acct_[i] = at + 1;
            stats.inserts += due_[i] != kIdleForever ? 1 : 0;
            ++ticked;
        }
        in_cycle_ = false;
        stats.pops += ticked;
        stats.active_cycles += ticked > 0 ? 1 : 0;
        return ticked;
    }

    void catch_up(Cycle to) {
        for (std::uint32_t i = 0; i < comps_.size(); ++i) {
            if (acct_[i] < to) {
                comps_[i]->skip(acct_[i], to);
                acct_[i] = to;
            }
        }
    }

    void wake(std::uint32_t component) override {
        const Cycle at =
            in_cycle_ && component > cursor_ ? now_ : now_ + 1;
        if (due_[component] <= at) {
            return;
        }
        ++stats.wakes;
        stats.inserts += at != now_ ? 1 : 0;
        due_[component] = at;
        const auto armed = static_cast<std::uint64_t>(
            std::count_if(due_.begin(), due_.end(),
                          [](Cycle d) { return d != kIdleForever; }));
        stats.peak_occupancy = std::max(stats.peak_occupancy, armed);
    }

    WheelStats stats;

private:
    std::vector<Component*> comps_;
    std::vector<Cycle> due_;
    std::vector<Cycle> acct_;
    Cycle now_ = 0;
    std::uint32_t cursor_ = 0;
    bool in_cycle_ = false;
};

/// Draws its horizon and its wakes from a per-component seeded stream, one
/// draw set per visit, so two schedulers that visit alike draw alike.
/// Horizons: +1 (half), +2..8, +9..300, past the run, or never.  Wakes:
/// zero to two random targets, below, at or above its own index.
class RandomScripted final : public Component {
public:
    RandomScripted(std::uint32_t id, std::uint32_t n, std::uint64_t seed,
                   std::vector<Visit>* log)
        : Component(std::string(1, 'r') += std::to_string(id)),
          id_(id),
          n_(n),
          rng_(seed * 1000003 + id),
          log_(log) {}

    Cycle tick(Cycle now) override {
        log_->push_back({now, id_});
        const std::uint64_t pct = rng_.next_below(100);
        const Cycle next = pct < 50   ? now + 1
                           : pct < 70 ? now + 2 + rng_.next_below(7)
                           : pct < 85 ? now + 9 + rng_.next_below(292)
                           : pct < 88 ? now + 70'000 + rng_.next_below(10'000)
                                      : kIdleForever;
        for (std::uint64_t w = rng_.next_below(3); w > 0; --w) {
            waker->wake(static_cast<std::uint32_t>(rng_.next_below(n_)));
        }
        return next;
    }
    void skip(Cycle from, Cycle to) override { skips.push_back({from, to}); }
    [[nodiscard]] bool quiescent() const override { return false; }

    Waker* waker = nullptr;
    std::vector<Span> skips;

private:
    std::uint32_t id_;
    std::uint32_t n_;
    Xoshiro256 rng_;
    std::vector<Visit>* log_;
};

/// One seeded run: visit log, per-component skip spans, counters, and the
/// cycles the loop ran (for the reference: those with a tick).
struct Trace {
    std::vector<Visit> log;
    std::vector<std::vector<Span>> skips;
    std::vector<Cycle> cycles;
    WheelStats stats;
};

constexpr Cycle kDiffLast = 2'000;

std::vector<std::unique_ptr<RandomScripted>> random_comps(
    std::uint32_t n, std::uint64_t seed, std::vector<Visit>* log,
    std::vector<Component*>* list) {
    std::vector<std::unique_ptr<RandomScripted>> comps;
    for (std::uint32_t i = 0; i < n; ++i) {
        comps.push_back(std::make_unique<RandomScripted>(i, n, seed, log));
        list->push_back(comps.back().get());
    }
    return comps;
}

Trace run_scheduler(std::uint32_t n, std::uint64_t seed) {
    Trace tr;
    std::vector<Component*> list;
    auto comps = random_comps(n, seed, &tr.log, &list);
    WheelScheduler sched;
    for (auto& c : comps) {
        c->waker = &sched;
    }
    sched.attach(list);
    sched.start(0);
    std::uint64_t t = 0;
    for (Cycle now = 0; !sched.idle() && now <= kDiffLast;
         now = sched.next_due()) {
        tr.cycles.push_back(now);
        sched.run_cycle(now, nullptr, t);
    }
    sched.catch_up(kDiffLast + 1);
    for (auto& c : comps) {
        tr.skips.push_back(c->skips);
    }
    tr.stats = sched.stats();
    return tr;
}

Trace run_reference(std::uint32_t n, std::uint64_t seed) {
    Trace tr;
    std::vector<Component*> list;
    auto comps = random_comps(n, seed, &tr.log, &list);
    PerCycleReference ref(list);
    for (auto& c : comps) {
        c->waker = &ref;
    }
    for (Cycle now = 0; now <= kDiffLast; ++now) {
        if (ref.run_cycle(now) > 0) {
            tr.cycles.push_back(now);
        }
    }
    ref.catch_up(kDiffLast + 1);
    for (auto& c : comps) {
        tr.skips.push_back(c->skips);
    }
    tr.stats = ref.stats;
    return tr;
}

TEST(WheelScheduler, MatchesPerCycleReferenceOnRandomScripts) {
    for (const std::uint32_t n : {1u, 12u, 45u, 64u, 65u, 130u}) {
        std::size_t visits = 0;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE("components=" + std::to_string(n) +
                         " seed=" + std::to_string(seed));
            const Trace got = run_scheduler(n, seed);
            const Trace want = run_reference(n, seed);
            visits += want.log.size();
            EXPECT_EQ(got.log, want.log);
            EXPECT_EQ(got.skips, want.skips);
            EXPECT_EQ(got.cycles, want.cycles);
            EXPECT_EQ(got.stats.pops, want.stats.pops);
            EXPECT_EQ(got.stats.inserts, want.stats.inserts);
            EXPECT_EQ(got.stats.wakes, want.stats.wakes);
            EXPECT_EQ(got.stats.active_cycles, want.stats.active_cycles);
            EXPECT_EQ(got.stats.peak_occupancy, want.stats.peak_occupancy);
        }
        EXPECT_GT(visits, 4 * n * 4) << "the runs died young at n=" << n;
    }
}

}  // namespace
}  // namespace dta::sim
