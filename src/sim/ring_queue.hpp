// A FIFO over a power-of-two ring that grows by doubling and never shrinks,
// for hot-path queues of small records. std::deque frees and reallocates its
// chunks as a FIFO moves through them; once a RingQueue has reached its peak
// length, pushes and pops never touch the heap.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace smarth::sim {

/// `T` must be default-constructible and movable. Popped slots keep their
/// moved-from values until overwritten, so `T` should own nothing.
template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The i-th element from the front. Precondition: i < size().
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask()]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask()];
  }
  T& front() { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    (*this)[size_] = std::move(value);
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask();
    --size_;
  }
  void pop_back() { --size_; }

 private:
  std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    std::vector<T> slots(std::max<std::size_t>(16, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) slots[i] = std::move((*this)[i]);
    slots_ = std::move(slots);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace smarth::sim
