#include "cache/block_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace eas::cache {

LruBlockCache::LruBlockCache(std::size_t capacity_blocks,
                             std::size_t num_data)
    : capacity_(capacity_blocks) {
  EAS_REQUIRE_MSG(num_data <= kInvalidData,
                  num_data << " block ids exceed the 32-bit DataId range");
  // At most num_data blocks can ever be resident, so a larger capacity
  // needs no more nodes than that.
  nodes_.resize(std::min(capacity_blocks, num_data));
  index_.assign(num_data, kNone);
}

void LruBlockCache::unlink(std::uint32_t n) {
  const Node& x = nodes_[n];
  (x.prev != kNone ? nodes_[x.prev].next : head_) = x.next;
  (x.next != kNone ? nodes_[x.next].prev : tail_) = x.prev;
}

void LruBlockCache::push_front(std::uint32_t n) {
  nodes_[n].prev = kNone;
  nodes_[n].next = head_;
  (head_ != kNone ? nodes_[head_].prev : tail_) = n;
  head_ = n;
}

bool LruBlockCache::lookup(DataId b) {
  const std::uint32_t n = node_of(b);
  if (n == kNone) return false;
  if (n != head_) {
    unlink(n);
    push_front(n);
  }
  return true;
}

DataId LruBlockCache::insert(DataId b) {
  if (capacity_ == 0) return kInvalidData;
  EAS_REQUIRE_MSG(b < index_.size(),
                  "block " << b << " outside the cache's id range "
                           << index_.size());
  if (lookup(b)) return kInvalidData;  // resident: promotion only
  DataId evicted = kInvalidData;
  std::uint32_t n;
  if (size_ == nodes_.size()) {
    // Full: the LRU node is recycled for the newcomer.
    n = tail_;
    evicted = nodes_[n].block;
    index_[evicted] = kNone;
    unlink(n);
    --size_;
  } else if (free_ != kNone) {
    n = free_;
    free_ = nodes_[n].next;
  } else {
    EAS_ASSERT(used_ < nodes_.size());  // else a released node leaked
    n = used_++;
  }
  nodes_[n].block = b;
  index_[b] = n;
  push_front(n);
  ++size_;
  EAS_ENSURE(size_ <= nodes_.size());
  return evicted;
}

bool LruBlockCache::erase(DataId b) {
  const std::uint32_t n = node_of(b);
  if (n == kNone) return false;
  unlink(n);
  index_[b] = kNone;
  nodes_[n].next = free_;
  free_ = n;
  --size_;
  return true;
}

}  // namespace eas::cache
