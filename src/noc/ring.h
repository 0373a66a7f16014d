// Flat circular buffer for the simulator's hot queues (VC flit buffers,
// link pipeline queues, NI inject queues). Replaces std::deque, whose
// per-block heap traffic dominated the tick-loop profile: a Ring keeps its
// elements in one contiguous power-of-two array, grows geometrically (so a
// queue that once reached depth N never allocates again below N) and
// supports the few deque operations the NoC actually uses — including
// push_front (header rewrites) and mid-queue erase (condemned-flit scrubs).
//
// Deliberate differences from std::deque:
//   - NO iterator/reference stability: any mutation invalidates iterators
//     and references (growth moves elements; erase shifts them). Call sites
//     were audited for this during the deque migration (see the erase()
//     return-value pattern in router.cpp / ni.cpp).
//   - Popped slots are reset to a default-constructed T immediately, so a
//     Ring never pins resources (e.g. packet refcounts) of elements that
//     have logically left the queue.
#pragma once

#include <cassert>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace disco::noc {

template <typename T>
class Ring {
 public:
  using value_type = T;

  Ring() = default;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & mask_];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T v) {
    reserve_one();
    buf_[(head_ + size_) & mask_] = std::move(v);
    ++size_;
  }

  void push_front(T v) {
    reserve_one();
    head_ = (head_ + mask_) & mask_;  // head - 1, mod capacity
    buf_[head_] = std::move(v);
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    buf_[head_] = T();  // release held resources right away
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void pop_back() {
    assert(size_ > 0);
    buf_[(head_ + size_ - 1) & mask_] = T();
    --size_;
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) buf_[(head_ + i) & mask_] = T();
    head_ = 0;
    size_ = 0;
  }

  // --- iteration (logical-index iterators; invalidated by any mutation) ---
  template <typename RingT, typename ValueT>
  class Iter {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = ValueT;
    using difference_type = std::ptrdiff_t;
    using pointer = ValueT*;
    using reference = ValueT&;

    Iter() = default;
    Iter(RingT* r, std::size_t i) : ring_(r), i_(i) {}
    // const_iterator from iterator
    template <typename R2, typename V2>
    Iter(const Iter<R2, V2>& o) : ring_(o.ring_), i_(o.i_) {}

    reference operator*() const { return (*ring_)[i_]; }
    pointer operator->() const { return &(*ring_)[i_]; }
    Iter& operator++() { ++i_; return *this; }
    Iter operator++(int) { Iter t = *this; ++i_; return t; }
    Iter& operator--() { --i_; return *this; }
    Iter& operator+=(difference_type d) { i_ += static_cast<std::size_t>(d); return *this; }
    Iter operator+(difference_type d) const { Iter t = *this; t += d; return t; }
    difference_type operator-(const Iter& o) const {
      return static_cast<difference_type>(i_) - static_cast<difference_type>(o.i_);
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }
    bool operator!=(const Iter& o) const { return i_ != o.i_; }

   private:
    template <typename, typename> friend class Iter;
    friend class Ring;
    RingT* ring_ = nullptr;
    std::size_t i_ = 0;
  };

  using iterator = Iter<Ring, T>;
  using const_iterator = Iter<const Ring, const T>;

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  /// Erase the element at `it`, shifting everything after it one slot
  /// forward. Returns an iterator to the element that followed it (same
  /// logical index). O(distance to back); the NoC only erases from short
  /// queues (condemned-flit scrubs, dead-destination drops).
  iterator erase(iterator it) {
    assert(it.i_ < size_);
    for (std::size_t i = it.i_; i + 1 < size_; ++i)
      (*this)[i] = std::move((*this)[i + 1]);
    pop_back();
    return {this, it.i_};
  }

  /// Erase [first, last), shifting the tail forward.
  iterator erase(iterator first, iterator last) {
    assert(first.i_ <= last.i_ && last.i_ <= size_);
    const std::size_t n = last.i_ - first.i_;
    if (n == 0) return {this, first.i_};
    if (first.i_ == 0) {
      for (std::size_t k = 0; k < n; ++k) pop_front();  // fast common case
    } else {
      for (std::size_t i = first.i_; i + n < size_; ++i)
        (*this)[i] = std::move((*this)[i + n]);
      for (std::size_t k = 0; k < n; ++k) pop_back();
    }
    return {this, first.i_};
  }

 private:
  void reserve_one() {
    if (size_ < buf_.size()) return;
    const std::size_t cap = buf_.empty() ? kInitialCapacity : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    buf_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  static constexpr std::size_t kInitialCapacity = 8;

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t mask_ = 0;  // capacity - 1 (capacity is a power of two)
  std::size_t size_ = 0;
};

}  // namespace disco::noc
