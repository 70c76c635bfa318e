// The event simulator's priority queues (src/sim/event_sim.cc): a binary
// min-heap that keeps its capacity across runs, and the packed integer key
// its event and pending-shard heaps compare.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cnpu {

// An instant and a 64-bit order key as one unsigned 128-bit integer: the
// IEEE bits of the instant, sign bit cleared, above `key`. The bits of a
// non-negative double (+inf included) order as the double does, and
// clearing the sign bit reads -0.0 as +0.0, as `time + 0.0` would, in one
// integer AND. So on [-0.0, +inf], comparing two packed keys orders
// exactly as comparing (time, key) did, with no branch on the double.
// Negative instants and NaN have no place in this order; the engine's
// input checks keep them out of every instant that reaches a heap.
using TimeKey = unsigned __int128;

inline TimeKey pack_time_key(double time, std::uint64_t key) {
  constexpr std::uint64_t kNoSign = ~(std::uint64_t{1} << 63);
  return static_cast<TimeKey>(std::bit_cast<std::uint64_t>(time) & kNoSign)
             << 64 |
         key;
}

// Vector-backed binary min-heap under `After`, a strict weak order where
// After{}(x, y) means x pops after y. clear() keeps the capacity, so a
// heap reused across runs allocates only while it grows. Push sifts the
// new element up. Pop moves the hole at the root down along the smaller
// child until the former last element fits there. Picking the smaller
// child is a comparison feeding an index, which the compiler turns into a
// conditional move. Elements that tie under `After` may pop in any order.
template <typename T, typename After>
class MinHeap {
 public:
  bool empty() const { return v_.empty(); }
  const T& top() const { return v_.front(); }
  std::size_t size() const { return v_.size(); }
  void clear() { v_.clear(); }

  void push(T x) {
    v_.push_back(x);
    sift_up(v_.size() - 1, x);
  }

  void pop() {
    const std::size_t n = v_.size() - 1;  // the size after the pop
    T* a = v_.data();
    const T last = a[n];
    std::size_t hole = 0;
    std::size_t child = 1;
    for (; child + 1 < n; child = 2 * hole + 1) {
      child += After{}(a[child], a[child + 1]) ? 1 : 0;
      if (!After{}(last, a[child])) break;
      a[hole] = a[child];
      hole = child;
    }
    if (child + 1 == n && After{}(last, a[child])) {  // a lone left child
      a[hole] = a[child];
      hole = child;
    }
    a[hole] = last;
    v_.pop_back();
  }

 private:
  // Fills the hole at `i` with `x`, moving it up past every parent that
  // pops after it.
  void sift_up(std::size_t i, const T& x) {
    T* a = v_.data();
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!After{}(a[parent], x)) break;
      a[i] = a[parent];
      i = parent;
    }
    a[i] = x;
  }

  std::vector<T> v_;
};

}  // namespace cnpu
