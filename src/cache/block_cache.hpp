// Deterministic block caches: LRU and ARC behind one interface.
//
// Replacement state is a pure function of the lookup/insert call sequence —
// no clocks, no randomness, no address-dependent ordering — so any run that
// feeds the same request stream gets the same hit/miss/eviction sequence
// regardless of thread count.
//
// The LRU is the one the request path runs, so it holds no hash map and no
// list nodes: an intrusive doubly linked recency list threads a node array
// of `capacity` entries, and a per-DataId index (sized once from the
// placement's num_data) maps a block to its node. A miss-insert on a full
// cache reuses the evicted node, so lookup, insert and erase allocate
// nothing once constructed (test_cache pins this with the counting
// allocator). ARC keeps std::list recency lists behind a hash index: it
// serves the replacement ablations, not a benchmarked path; its iterations
// still walk only the lists, never the unordered index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/ids.hpp"

namespace eas::cache {

enum class CachePolicy : std::uint8_t;

/// Replacement-policy interface. Capacity 0 degenerates cleanly: lookups
/// miss, inserts are no-ops.
class BlockCache {
 public:
  virtual ~BlockCache() = default;

  virtual const char* name() const = 0;
  virtual std::size_t capacity() const = 0;
  /// Resident (non-ghost) blocks.
  virtual std::size_t size() const = 0;

  /// True when `b` is resident. Does NOT touch recency state — use for
  /// inspection only, never on a request path.
  virtual bool contains(DataId b) const = 0;

  /// True on hit; promotes `b` in the replacement order.
  virtual bool lookup(DataId b) = 0;

  /// Admits `b` (promoting it if already resident). Returns the evicted
  /// block, or kInvalidData when nothing was displaced.
  virtual DataId insert(DataId b) = 0;

  /// Drops `b` if resident (used when a block's last disk replica is lost —
  /// the cache must not outlive the data it mirrors). Returns true if it
  /// was resident.
  virtual bool erase(DataId b) = 0;

  /// `num_data` bounds the block ids the cache will ever see (ids are dense
  /// in [0, num_data)); the LRU sizes its index by it.
  static std::unique_ptr<BlockCache> make(CachePolicy policy,
                                          std::size_t capacity_blocks,
                                          std::size_t num_data);
};

/// Classic LRU over dense block ids: an intrusive recency list through a
/// node array of min(capacity, num_data) entries plus a per-DataId node
/// index. lookup() relinks the hit node at the front; insert() on a full
/// cache reuses the back node for the newcomer. Nothing allocates after
/// construction.
class LruBlockCache final : public BlockCache {
 public:
  /// Blocks `b` must satisfy b < num_data.
  LruBlockCache(std::size_t capacity_blocks, std::size_t num_data);

  const char* name() const override { return "lru"; }
  std::size_t capacity() const override { return capacity_; }
  std::size_t size() const override { return size_; }
  bool contains(DataId b) const override { return node_of(b) != kNone; }
  bool lookup(DataId b) override;
  DataId insert(DataId b) override;
  bool erase(DataId b) override;

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

/// Adaptive Replacement Cache (Megiddo & Modha, FAST'03). Two resident
/// lists T1 (seen once) / T2 (seen twice+) plus ghost lists B1/B2 of
/// recently evicted identities; the target size `p` of T1 adapts on ghost
/// hits. |T1|+|T2| <= c resident, |T1|+|B1| <= c, total directory <= 2c.
class ArcBlockCache final : public BlockCache {
 public:
  explicit ArcBlockCache(std::size_t capacity_blocks)
      : capacity_(capacity_blocks) {}

  const char* name() const override { return "arc"; }
  std::size_t capacity() const override { return capacity_; }
  std::size_t size() const override { return t1_.size() + t2_.size(); }
  bool contains(DataId b) const override;
  bool lookup(DataId b) override;
  DataId insert(DataId b) override;
  bool erase(DataId b) override;

  /// Adaptation target for |T1| — exposed for the golden-sequence tests.
  std::size_t target_t1() const { return p_; }
  std::size_t t1_size() const { return t1_.size(); }
  std::size_t t2_size() const { return t2_.size(); }
  std::size_t b1_size() const { return b1_.size(); }
  std::size_t b2_size() const { return b2_.size(); }

 private:
  using List = std::list<DataId>;
  enum class Where : std::uint8_t { kT1, kT2, kB1, kB2 };
  struct Entry {
    Where where;
    List::iterator it;
  };

  // REPLACE(x, p): evict from T1 if |T1| >= max(1, p) (or the B2-hit
  // tie-break), else from T2; the victim's identity moves to the matching
  // ghost list. Returns the evicted block.
  DataId replace(bool hit_in_b2);
  void trim_ghosts();

  std::size_t capacity_;
  std::size_t p_ = 0;  // target size of T1
  List t1_, t2_, b1_, b2_;  // each: front = MRU
  std::unordered_map<DataId, Entry> index_;
};

}  // namespace eas::cache
