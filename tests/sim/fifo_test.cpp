// Unit tests for sim::Fifo: ring wrap-around, growth while wrapped, and
// iteration in pop order (the order the snapshot writers rely on).
#include "sim/fifo.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/port.hpp"
#include "sim/snapshot.hpp"

namespace dta::sim {
namespace {

std::vector<int> contents(const Fifo<int>& f) {
    return {f.begin(), f.end()};
}

std::vector<int> drain(Fifo<int>& f) {
    std::vector<int> out;
    while (!f.empty()) {
        out.push_back(f.front());
        f.pop_front();
    }
    return out;
}

TEST(Fifo, WrapsAroundWithoutGrowing) {
    Fifo<int> f;
    f.push_back(0);
    const std::size_t cap = f.capacity();
    ASSERT_GE(cap, 2u);
    // Keep cap - 1 elements queued while the head walks round the ring
    // several times.
    int next_in = 1;
    int next_out = 0;
    for (std::size_t i = 1; i + 1 < cap; ++i) {
        f.push_back(next_in++);
    }
    for (std::size_t round = 0; round < 5 * cap; ++round) {
        ASSERT_EQ(f.front(), next_out);
        f.pop_front();
        ++next_out;
        f.push_back(next_in++);
        ASSERT_EQ(f.size(), cap - 1);
    }
    EXPECT_EQ(f.capacity(), cap);
    std::vector<int> want;
    for (int v = next_out; v < next_in; ++v) {
        want.push_back(v);
    }
    EXPECT_EQ(contents(f), want);
    EXPECT_EQ(drain(f), want);
}

TEST(Fifo, GrowsWhileWrappedKeepingOrder) {
    Fifo<int> g;
    g.push_back(-1);
    const std::size_t cap = g.capacity();
    // Move the head past the middle of the ring, then fill the ring so the
    // queue wraps past the end of its storage; one more push grows it.
    for (std::size_t i = 0; i < cap / 2; ++i) {
        g.push_back(-1);
    }
    while (!g.empty()) {
        g.pop_front();
    }
    std::vector<int> want;
    for (int v = 0; v <= static_cast<int>(cap); ++v) {
        g.push_back(v);
        want.push_back(v);
    }
    EXPECT_EQ(g.capacity(), 2 * cap);
    EXPECT_EQ(contents(g), want);
    EXPECT_EQ(drain(g), want);
    // The grown ring still wraps correctly.
    for (int v = 0; v < static_cast<int>(3 * cap); ++v) {
        g.push_back(v);
        ASSERT_EQ(g.front(), v);
        g.pop_front();
    }
    EXPECT_EQ(g.capacity(), 2 * cap);
}

TEST(Fifo, IterationOrderIsPopOrder) {
    Fifo<int> f;
    int v = 0;
    // Mixed pushes and pops leave the head at an arbitrary slot.
    for (int step = 0; step < 100; ++step) {
        f.push_back(v++);
        if (step % 3 == 0) {
            f.push_back(v++);
        }
        if (step % 2 == 0) {
            f.pop_front();
        }
        const std::vector<int> seen = contents(f);
        Fifo<int> copy = f;
        ASSERT_EQ(seen, drain(copy)) << "step " << step;
    }
}

TEST(Fifo, PopReleasesTheElement) {
    Fifo<std::shared_ptr<int>> f;
    auto p = std::make_shared<int>(7);
    f.push_back(p);
    EXPECT_EQ(p.use_count(), 2);
    f.pop_front();
    EXPECT_EQ(p.use_count(), 1);
}

TEST(Fifo, PortSnapshotRoundTripKeepsOrder) {
    // Port<T> snapshots iterate the ring; a wrapped ring must save and
    // load in FIFO order.
    Port<int> a;
    for (int i = 0; i < 6; ++i) {
        a.push(i);
    }
    int out = 0;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(a.pop(out));
    }
    for (int i = 6; i < 12; ++i) {
        a.push(i);
    }
    StateSink s;
    a.save_state(s, [](StateSink& k, int x) {
        k.u32(static_cast<std::uint32_t>(x));
    });
    Port<int> b;
    StateSource src(s.data().data(), s.data().size());
    b.load_state(src, [](StateSource& k, int& x) {
        x = static_cast<int>(k.u32());
    });
    src.finish();
    std::vector<int> got;
    while (b.pop(out)) {
        got.push_back(out);
    }
    EXPECT_EQ(got, (std::vector<int>{5, 6, 7, 8, 9, 10, 11}));
}

}  // namespace
}  // namespace dta::sim
