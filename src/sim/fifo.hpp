// A small FIFO for per-node queues that are almost always empty: the CPU
// work backlog and the switch ports' waiter lines.  A 4096-node cluster
// holds thousands of them, and a default-constructed std::deque already
// allocates a map and a chunk (~0.5 KB) before the first push.  Fifo costs
// nothing until it is used:
//
//   - storage is a vector plus a read index, allocated on the first push;
//   - popping the last item rewinds both, so a queue that drains reuses its
//     buffer from the front;
//   - a queue that never drains compacts its consumed prefix when the
//     buffer is full and at least half consumed, so memory stays O(live)
//     and each item is moved O(1) times amortized.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace pcd::sim {

template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  /// Slots currently allocated (0 until the first push).
  std::size_t capacity() const { return items_.capacity(); }

  void push_back(T value) {
    if (items_.size() == items_.capacity() && head_ >= items_.size() / 2 && head_ > 0) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(std::move(value));
  }

  /// Removes and returns the front item.
  T pop_front() {
    assert(!empty());
    T value = std::move(items_[head_]);
    if (++head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
    return value;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;  // items_[0, head_) are consumed
};

}  // namespace pcd::sim
