// Indexed 8-ary max-heap over (score, vertex) keys — the selection engine
// behind the conflict-graph GWMIN/GWMIN2 solve (core/conflict_graph.hpp).
//
// Why indexed rather than lazy: the greedy deletes the closed neighbourhood
// N[v] on every selection and bumps the score of each survivor adjacent to a
// kill. A lazy heap (push a fresh entry per bump, skip stale pops) is exact
// but pays for every historical entry: on a 60k-node conflict graph the
// solver pushed/popped ~800k 16-byte entries through a binary
// std::push_heap/std::pop_heap, and that sift traffic — not the greedy
// itself — dominated the solve. Tracking each vertex's heap position makes
// deletion O(log n) with no tombstones, and turns a score bump into an
// in-place re-key whose sift-up almost always terminates after one parent
// compare (greedy scores only ever increase, and by little).
//
// Why 8-ary: the heap holds one entry per conflict node (millions), so depth
// matters — log_8 levels instead of log_2, and the eight children of a node
// are contiguous, so a sift-down level reads two cache lines instead of
// chasing two scattered ones.
//
// Determinism contract: keys are (score, vertex index) compared
// lexicographically, so the heap's maximum is a *total-order* argmax — heap
// shape never influences which vertex ranks first. Equal scores go to the
// higher index, the order a max-heap of std::pair<double, uint32_t> pops,
// which the conflict solve's historical lazy heap was.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace eas::graph {

class IndexedScoreHeap {
 public:
  struct Entry {
    double score;
    std::uint32_t v;
  };

  /// Rebuilds the heap over vertices [0, n), scoring each with `score(v)`.
  /// Reuses storage from previous builds (no steady-state allocation once
  /// the workspace reaches its high-water size). O(n) Floyd heapify.
  template <typename ScoreFn>
  void assign(std::uint32_t n, ScoreFn score) {
    slots_.resize(n);
    pos_.resize(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      slots_[v] = Entry{score(v), v};
      pos_[v] = v;
    }
    if (n > 1) {
      for (std::size_t i = (static_cast<std::size_t>(n) - 2) / kArity + 1;
           i-- > 0;) {
        sift_down(i);
      }
    }
  }

  bool empty() const { return slots_.empty(); }
  std::size_t size() const { return slots_.size(); }
  bool contains(std::uint32_t v) const { return pos_[v] != kAbsent; }

  /// The (score, vertex) maximum. Heap must be non-empty.
  Entry top() const {
    EAS_ASSERT(!slots_.empty());
    return slots_[0];
  }

  /// Removes the maximum. O(log n).
  void pop_top() {
    EAS_ASSERT(!slots_.empty());
    pos_[slots_[0].v] = kAbsent;
    const Entry last = slots_.back();
    slots_.pop_back();
    if (!slots_.empty()) {
      slots_[0] = last;
      pos_[last.v] = 0;
      sift_down(0);
    }
  }

  /// Removes vertex `v`, which must be present. O(log n).
  void remove(std::uint32_t v) {
    const std::size_t i = pos_[v];
    EAS_ASSERT(i != kAbsent);
    pos_[v] = kAbsent;
    const Entry last = slots_.back();
    slots_.pop_back();
    if (i == slots_.size()) return;  // removed the physical tail
    slots_[i] = last;
    pos_[last.v] = static_cast<std::uint32_t>(i);
    // The replacement came from the bottom; it can still rank above its new
    // parent when the removal site sits in a different subtree.
    if (i > 0 && precedes(slots_[i], slots_[(i - 1) / kArity])) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }

  /// Re-keys vertex `v` (present) to `score`, which must not rank below its
  /// current key — greedy scores only ever grow as neighbours die. Amortised
  /// O(1): the sift-up usually stops at the first parent compare.
  void increase(std::uint32_t v, double score) {
    const std::size_t i = pos_[v];
    EAS_ASSERT(i != kAbsent);
    EAS_ASSERT(slots_[i].score <= score);
    slots_[i].score = score;
    sift_up(i);
  }

 private:
  static constexpr std::size_t kArity = 8;
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  /// Strict total order: does `a` rank above `b`?
  static bool precedes(const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.v > b.v;
  }

  void sift_up(std::size_t i) {
    const Entry e = slots_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!precedes(e, slots_[parent])) break;
      slots_[i] = slots_[parent];
      pos_[slots_[i].v] = static_cast<std::uint32_t>(i);
      i = parent;
    }
    slots_[i] = e;
    pos_[e.v] = static_cast<std::uint32_t>(i);
  }

  void sift_down(std::size_t i) {
    const Entry e = slots_[i];
    const std::size_t n = slots_.size();
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (precedes(slots_[c], slots_[best])) best = c;
      }
      if (!precedes(slots_[best], e)) break;
      slots_[i] = slots_[best];
      pos_[slots_[i].v] = static_cast<std::uint32_t>(i);
      i = best;
    }
    slots_[i] = e;
    pos_[e.v] = static_cast<std::uint32_t>(i);
  }

  std::vector<Entry> slots_;        // heap order
  std::vector<std::uint32_t> pos_;  // vertex -> slot index, kAbsent if out
};

}  // namespace eas::graph
