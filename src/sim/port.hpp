/// \file port.hpp
/// \brief Typed single-reader FIFO ports and a fixed-slot object pool.
///
/// `Port<T>` is the one sanctioned way to move data between components:
/// the producer holds a `Port<T>*` bound once at machine construction and
/// pushes; the owning consumer drains in its own tick. This replaces the
/// seed's anonymous glue deques (`memif_outbox_`, `bridge_out_`,
/// `link_arrivals_`) whose routing was re-derived every cycle inside
/// `Machine`.
///
/// `Pool<T>` replaces the hand-rolled in-flight context free-list: slots
/// are handed out by index (cheap to stuff into a packet's metadata word)
/// and checked against double-free / use-after-free.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/fifo.hpp"

namespace dta::sim {

class StateSink;
class StateSource;

/// Wake sink for the event-driven scheduler (sim/wheel.hpp): a `Port<T>`
/// with a waker bound reports every push so the scheduler can re-arm the
/// sleeping consumer.  The dense loop binds no wakers and pays one
/// predictable branch per push.
class Waker {
 public:
    virtual ~Waker() = default;
    /// Input just landed in a queue owned by scheduler entry \p component.
    virtual void wake(std::uint32_t component) = 0;
};

/// An unbounded FIFO with exactly one consumer (its owner). Producers may
/// be many; ordering is push order, which the machine's fixed component
/// order makes deterministic.  The queue is a `Fifo<T>` ring, so a port
/// at its working depth pushes and pops without allocating.
template <typename T>
class Port {
 public:
    void push(T v) {
        q_.push_back(std::move(v));
        if (waker_ != nullptr) {
            waker_->wake(waker_comp_);
        }
    }

    /// Routes push notifications to \p w as scheduler entry \p component.
    /// Bound once at machine construction, before the run loop starts.
    void set_waker(Waker* w, std::uint32_t component) {
        waker_ = w;
        waker_comp_ = component;
    }

    /// Pop the oldest element into \p out; false when empty.
    [[nodiscard]] bool pop(T& out) {
        if (q_.empty()) {
            return false;
        }
        out = q_.take_front();
        return true;
    }

    /// Peek the oldest element (for try-then-commit consumers that may
    /// have to leave it queued, e.g. when downstream refuses injection).
    [[nodiscard]] const T& front() const { return q_.front(); }
    void pop_front() { q_.pop_front(); }

    [[nodiscard]] bool empty() const { return q_.empty(); }
    [[nodiscard]] std::size_t size() const { return q_.size(); }

    /// Snapshot the queued elements in FIFO order; \p f serialises one
    /// element. The waker binding is wiring and is not saved.
    template <typename F>
    void save_state(StateSink& s, F&& f) const {
        save_seq(s, q_, f);
    }

    /// Inverse of save_state; requires the port to be freshly constructed
    /// (or empty). Loading bypasses the waker on purpose: restore happens
    /// before the scheduler starts, and start() arms every component.
    template <typename F>
    void load_state(StateSource& s, F&& f) {
        DTA_CHECK(q_.empty());
        load_seq(s, q_, f);
    }

 private:
    Fifo<T> q_;
    Waker* waker_ = nullptr;
    std::uint32_t waker_comp_ = 0;
};

/// Fixed-type slab allocator handing out stable indices. Slots are reused
/// LIFO; `outstanding()` supports quiescence checks.
template <typename T>
class Pool {
 public:
    /// Claim a slot holding \p v; returns its index.
    [[nodiscard]] std::uint64_t alloc(T v) {
        std::uint64_t idx;
        if (!free_.empty()) {
            idx = free_.back();
            free_.pop_back();
        } else {
            idx = slots_.size();
            slots_.emplace_back();
        }
        Slot& s = slots_[idx];
        DTA_CHECK(!s.in_use);
        s.value = std::move(v);
        s.in_use = true;
        ++outstanding_;
        return idx;
    }

    [[nodiscard]] T& at(std::uint64_t idx) {
        DTA_CHECK(idx < slots_.size() && slots_[idx].in_use);
        return slots_[idx].value;
    }

    void release(std::uint64_t idx) {
        DTA_CHECK(idx < slots_.size() && slots_[idx].in_use);
        slots_[idx].in_use = false;
        free_.push_back(idx);
        --outstanding_;
    }

    [[nodiscard]] std::uint64_t outstanding() const { return outstanding_; }

    /// Snapshot slots (flag + value when live) and the LIFO free list
    /// verbatim, so restored alloc() hands out the same indices the
    /// original run would have.
    template <typename F>
    void save_state(StateSink& s, F&& f) const {
        save_seq(s, slots_, [&](StateSink& k, const Slot& slot) {
            k.flag(slot.in_use);
            if (slot.in_use) {
                f(k, slot.value);
            }
        });
        save_seq(s, free_,
                 [](StateSink& k, std::uint64_t idx) { k.u64(idx); });
    }

    template <typename F>
    void load_state(StateSource& s, F&& f) {
        DTA_CHECK(slots_.empty() && outstanding_ == 0);
        load_seq(s, slots_, [&](StateSource& k, Slot& slot) {
            slot.in_use = k.flag();
            if (slot.in_use) {
                f(k, slot.value);
                ++outstanding_;
            }
        });
        load_seq(s, free_,
                 [](StateSource& k, std::uint64_t& idx) { idx = k.u64(); });
    }

 private:
    struct Slot {
        T value{};
        bool in_use = false;
    };
    std::vector<Slot> slots_;
    std::vector<std::uint64_t> free_;
    std::uint64_t outstanding_ = 0;
};

}  // namespace dta::sim
