/// \file fifo.hpp
/// \brief `Fifo<T>`: the one queue type of the timed model — behind every
///        `Port<T>`, and every FIFO list of the local store, LSE, DSE, MFC,
///        main memory, bus fabric and ring links.
///
/// A power-of-two ring over a `std::vector<T>` that keeps its capacity:
/// once a queue has seen its peak depth, push and pop never touch the
/// allocator again (a deque allocates and frees a block every few hundred
/// bytes of traffic).  Growth doubles the ring and unwraps it, so
/// the element order is always head to tail.  An element leaves the ring
/// either moved out (take_front) or reset to `T{}` (pop_front), so its own
/// resources, such as a packet's payload, are released when it leaves the
/// queue, not when the ring reuses the slot.
///
/// Iteration runs head to tail, the order `pop_front` returns elements in;
/// the snapshot writers rely on that (`save_seq` iterates, `load_seq`
/// pushes back).
#pragma once

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace dta::sim {

template <typename T>
class Fifo {
public:
    using value_type = T;

    /// Forward iterator over the queued elements, oldest first.
    class const_iterator {
    public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T*;
        using reference = const T&;

        const_iterator() = default;
        const_iterator(const Fifo* f, std::size_t i) : f_(f), i_(i) {}
        reference operator*() const { return f_->at(i_); }
        pointer operator->() const { return &f_->at(i_); }
        const_iterator& operator++() {
            ++i_;
            return *this;
        }
        const_iterator operator++(int) {
            const_iterator old = *this;
            ++i_;
            return old;
        }
        bool operator==(const const_iterator& o) const { return i_ == o.i_; }

    private:
        const Fifo* f_ = nullptr;
        std::size_t i_ = 0;
    };

    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    /// Slots allocated (0 or a power of two; never shrinks).
    [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

    void push_back(const T& v) {
        tail_slot() = v;
        ++size_;
    }
    void push_back(T&& v) {
        tail_slot() = std::move(v);
        ++size_;
    }

    [[nodiscard]] T& front() { return buf_[head_]; }
    [[nodiscard]] const T& front() const { return buf_[head_]; }

    void pop_front() {
        buf_[head_] = T{};
        advance_head();
    }
    /// Removes the oldest element and returns it (moved out of its slot).
    [[nodiscard]] T take_front() {
        T v = std::move(buf_[head_]);
        advance_head();
        return v;
    }

    /// Empties the queue; the capacity stays.
    void clear() {
        while (!empty()) {
            pop_front();
        }
        head_ = 0;
    }

    /// The \p i-th oldest element.
    [[nodiscard]] const T& at(std::size_t i) const {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    [[nodiscard]] const_iterator begin() const { return {this, 0}; }
    [[nodiscard]] const_iterator end() const { return {this, size_}; }

private:
    /// The free slot behind the last element, growing the ring if full.
    T& tail_slot() {
        if (size_ == buf_.size()) {
            grow();
        }
        return buf_[(head_ + size_) & (buf_.size() - 1)];
    }
    void advance_head() {
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }
    void grow() {
        std::vector<T> next(buf_.empty() ? kMinCapacity : buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i) {
            next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        }
        buf_ = std::move(next);
        head_ = 0;
    }

    static constexpr std::size_t kMinCapacity = 8;

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace dta::sim
