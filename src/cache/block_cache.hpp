// Deterministic LRU read cache over dense block ids.
//
// Replacement state is a pure function of the lookup/insert call sequence —
// no clocks, no randomness, no address-dependent ordering — so any run that
// feeds the same request stream gets the same hit/miss/eviction sequence
// regardless of thread count.
//
// The cache sits on the request path, so it holds no hash map and no list
// nodes: an intrusive doubly linked recency list threads a node array of
// `capacity` entries, and a per-DataId index (sized once from the
// placement's num_data) maps a block to its node. A miss-insert on a full
// cache reuses the evicted node, so lookup, insert and erase allocate
// nothing once constructed (test_cache pins this with the counting
// allocator).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/ids.hpp"

namespace eas::cache {

/// Classic LRU over dense block ids: an intrusive recency list through a
/// node array of min(capacity, num_data) entries plus a per-DataId node
/// index. lookup() relinks the hit node at the front; insert() on a full
/// cache reuses the back node for the newcomer. Capacity 0 degenerates
/// cleanly: lookups miss, inserts are no-ops.
class LruBlockCache {
 public:
  /// `num_data` bounds the block ids the cache will ever see (ids are dense
  /// in [0, num_data)); the index is sized by it.
  LruBlockCache(std::size_t capacity_blocks, std::size_t num_data);

  const char* name() const { return "lru"; }
  std::size_t capacity() const { return capacity_; }
  /// Resident blocks.
  std::size_t size() const { return size_; }

  /// True when `b` is resident. Does NOT touch recency state — use for
  /// inspection only, never on a request path.
  bool contains(DataId b) const { return node_of(b) != kNone; }

  /// True on hit; promotes `b` to most recently used.
  bool lookup(DataId b);

  /// Admits `b` (promoting it if already resident). Returns the evicted
  /// block, or kInvalidData when nothing was displaced. Requires
  /// b < num_data.
  DataId insert(DataId b);

  /// Drops `b` if resident (used when a block's last disk replica is lost —
  /// the cache must not outlive the data it mirrors). Returns true if it
  /// was resident.
  bool erase(DataId b);

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct Node {
    DataId block;
    std::uint32_t prev;  // toward the MRU end; kNone at the head
    std::uint32_t next;  // toward the LRU end; kNone at the tail
  };

  std::uint32_t node_of(DataId b) const {
    return b < index_.size() ? index_[b] : kNone;
  }
  void unlink(std::uint32_t n);
  void push_front(std::uint32_t n);

  std::size_t capacity_;
  std::vector<Node> nodes_;           // min(capacity, num_data), fixed
  std::vector<std::uint32_t> index_;  // DataId -> node, kNone when absent
  std::uint32_t head_ = kNone;        // MRU
  std::uint32_t tail_ = kNone;        // LRU
  std::uint32_t free_ = kNone;        // erased nodes, chained through next
  std::uint32_t used_ = 0;            // nodes ever handed out (prefix)
  std::size_t size_ = 0;
};

}  // namespace eas::cache
