// Unit tests for sim::Cadence, the clock every periodic duty of the run
// loop keeps: where start() lands, and what owes(), take() and take_all()
// serve.
#include <gtest/gtest.h>

#include <vector>

#include "sim/types.hpp"

namespace dta::sim {
namespace {

/// Every cycle \p c owes before \p to, taken one at a time.
std::vector<Cycle> take_until(Cadence& c, Cycle to) {
    std::vector<Cycle> out;
    while (c.owes(to)) {
        out.push_back(c.take());
    }
    return out;
}

TEST(Cadence, PhaseFromCycleZero) {
    Cadence c{0x1000, 0xfff};
    c.start(0);
    EXPECT_EQ(c.next, 0xfffu);
    EXPECT_FALSE(c.owes(0xfff));
    EXPECT_TRUE(c.owes(0x1000));
    EXPECT_EQ(take_until(c, 0x3000),
              (std::vector<Cycle>{0xfff, 0x1fff, 0x2fff}));
    EXPECT_EQ(c.next, 0x3fffu);
}

TEST(Cadence, PhaseFromARestoreCycle) {
    Cadence c{0x1000, 0xfff};
    c.start(0x1fff);  // on the cadence: owed itself
    EXPECT_EQ(c.next, 0x1fffu);
    c.start(0x2000);
    EXPECT_EQ(c.next, 0x2fffu);
    c.start(5000);
    EXPECT_EQ(c.next, 0x1fffu);
}

TEST(Cadence, MultiplesStartAtTheFirstOneAtOrAfterStart) {
    Cadence c{50, 0};
    c.start(0);
    EXPECT_EQ(c.next, 0u);
    c.start(100);
    EXPECT_EQ(c.next, 100u);
    // A snapshot cadence starts one past the restore cycle, so a run
    // restored at a multiple does not rewrite the snapshot it came from.
    c.start(100 + 1);
    EXPECT_EQ(c.next, 150u);
}

TEST(Cadence, TakeServesEveryOwedCycleInOrder) {
    Cadence c{7, 0};
    c.start(3);
    EXPECT_EQ(take_until(c, 22), (std::vector<Cycle>{7, 14, 21}));
    EXPECT_FALSE(c.owes(28));
    EXPECT_TRUE(c.owes(29));
}

TEST(Cadence, TakeAllReturnsTheFirstAndDropsTheRest) {
    Cadence c{64, 0};
    c.start(0);
    EXPECT_EQ(c.take_all(200), 0u);  // 64, 128 and 192 dropped
    EXPECT_EQ(c.next, 256u);
    EXPECT_EQ(c.take_all(320), 256u);  // the span ends just before 320
    EXPECT_EQ(c.next, 320u);
    EXPECT_EQ(c.take_all(321), 320u);
    EXPECT_EQ(c.next, 384u);
}

TEST(Cadence, TakeAllDoesNotWrapOnAHugeInterval) {
    // `--audit=N` accepts any u64: a span must still drop its owed cycle.
    Cadence c{kCycleNever, 0};
    c.start(100);
    EXPECT_EQ(c.next, kCycleNever);
    c.start(0);
    EXPECT_EQ(c.take_all(5), 0u);
    EXPECT_FALSE(c.owes(kCycleNever));
}

TEST(Cadence, ZeroEveryOwesNothing) {
    Cadence c;
    c.start(0);
    EXPECT_EQ(c.next, kCycleNever);
    EXPECT_FALSE(c.owes(1));
    EXPECT_FALSE(c.owes(kCycleNever));
    c.start(12345);
    EXPECT_FALSE(c.owes(kCycleNever));
}

}  // namespace
}  // namespace dta::sim
