// Unit tests for sim::WheelScheduler, driven by scripted fake components:
// visit order within a cycle, same-cycle and next-cycle wakes, the
// next-cycle lane, idle detection and catch-up accounting.
#include "sim/wheel.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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
        : Component("c" + std::to_string(id)), id_(id), log_(log) {}

    void tick(Cycle now) override {
        log_->push_back({now, id_});
        next_ = kIdleForever;
        if (!script_.empty()) {
            const Cycle d = script_.front();
            script_.pop_front();
            next_ = d == kIdleForever ? kIdleForever : now + d;
        }
        if (on_tick) {
            on_tick(now);
        }
    }
    void skip(Cycle from, Cycle to) override { skips.push_back({from, to}); }
    [[nodiscard]] bool quiescent() const override { return false; }
    [[nodiscard]] Cycle next_activity(Cycle now) const override {
        (void)now;
        return next_;
    }

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
    Cycle next_ = kIdleForever;
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

}  // namespace
}  // namespace dta::sim
