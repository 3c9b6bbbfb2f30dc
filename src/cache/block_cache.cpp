#include "cache/block_cache.hpp"

#include <algorithm>

#include "cache/cache.hpp"
#include "util/check.hpp"

namespace eas::cache {

std::unique_ptr<BlockCache> BlockCache::make(CachePolicy policy,
                                             std::size_t capacity_blocks,
                                             std::size_t num_data) {
  switch (policy) {
    case CachePolicy::kLru:
      return std::make_unique<LruBlockCache>(capacity_blocks, num_data);
    case CachePolicy::kArc:
      return std::make_unique<ArcBlockCache>(capacity_blocks);
  }
  EAS_CHECK_MSG(false, "unknown cache policy");
  return nullptr;
}

// ---------------------------------------------------------------------------
// LRU

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

// ---------------------------------------------------------------------------
// ARC

bool ArcBlockCache::contains(DataId b) const {
  auto it = index_.find(b);
  if (it == index_.end()) return false;
  return it->second.where == Where::kT1 || it->second.where == Where::kT2;
}

bool ArcBlockCache::lookup(DataId b) {
  auto it = index_.find(b);
  if (it == index_.end()) return false;
  Entry& e = it->second;
  if (e.where != Where::kT1 && e.where != Where::kT2) return false;
  // Hit in T1 or T2: promote to MRU of T2 (seen at least twice now).
  List& from = e.where == Where::kT1 ? t1_ : t2_;
  t2_.splice(t2_.begin(), from, e.it);
  e.where = Where::kT2;
  return true;
}

DataId ArcBlockCache::replace(bool hit_in_b2) {
  EAS_ASSERT(!t1_.empty() || !t2_.empty());
  const std::size_t t1 = t1_.size();
  DataId victim;
  // Prefer T1 per the ARC target p_, but fall back to whichever resident
  // list is non-empty: erase() (write-buffer invalidation, lost replicas)
  // can drain either list independently of p_.
  if (!t1_.empty() && (t2_.empty() || t1 > p_ || (hit_in_b2 && t1 == p_))) {
    victim = t1_.back();
    t1_.pop_back();
    b1_.push_front(victim);
    index_[victim] = {Where::kB1, b1_.begin()};
  } else {
    victim = t2_.back();
    t2_.pop_back();
    b2_.push_front(victim);
    index_[victim] = {Where::kB2, b2_.begin()};
  }
  return victim;
}

void ArcBlockCache::trim_ghosts() {
  // Directory bound: |T1|+|B1| <= c and |T1|+|T2|+|B1|+|B2| <= 2c.
  while (t1_.size() + b1_.size() > capacity_ && !b1_.empty()) {
    index_.erase(b1_.back());
    b1_.pop_back();
  }
  while (t1_.size() + t2_.size() + b1_.size() + b2_.size() > 2 * capacity_ &&
         !b2_.empty()) {
    index_.erase(b2_.back());
    b2_.pop_back();
  }
}

DataId ArcBlockCache::insert(DataId b) {
  if (capacity_ == 0) return kInvalidData;
  auto it = index_.find(b);
  if (it != index_.end()) {
    Entry& e = it->second;
    switch (e.where) {
      case Where::kT1:
      case Where::kT2: {
        // Case I: already resident — same promotion as a hit.
        List& from = e.where == Where::kT1 ? t1_ : t2_;
        t2_.splice(t2_.begin(), from, e.it);
        e.where = Where::kT2;
        return kInvalidData;
      }
      case Where::kB1: {
        // Case II: ghost hit in B1 — recency is winning, grow T1's target.
        const std::size_t delta =
            b1_.size() >= b2_.size()
                ? 1
                : b2_.size() / b1_.size();
        p_ = std::min(capacity_, p_ + delta);
        // erase() may have left the resident set below capacity; only evict
        // when promoting the ghost would actually overflow T1 ∪ T2.
        const DataId evicted = t1_.size() + t2_.size() >= capacity_
                                   ? replace(/*hit_in_b2=*/false)
                                   : kInvalidData;
        t2_.splice(t2_.begin(), b1_, e.it);
        e.where = Where::kT2;
        return evicted;
      }
      case Where::kB2: {
        // Case III: ghost hit in B2 — frequency is winning, shrink T1's
        // target.
        const std::size_t delta =
            b2_.size() >= b1_.size()
                ? 1
                : b1_.size() / b2_.size();
        p_ = delta >= p_ ? 0 : p_ - delta;
        const DataId evicted = t1_.size() + t2_.size() >= capacity_
                                   ? replace(/*hit_in_b2=*/true)
                                   : kInvalidData;
        t2_.splice(t2_.begin(), b2_, e.it);
        e.where = Where::kT2;
        return evicted;
      }
    }
  }
  // Case IV: cold miss.
  DataId evicted = kInvalidData;
  const std::size_t l1 = t1_.size() + b1_.size();
  if (l1 == capacity_) {
    if (t1_.size() < capacity_) {
      index_.erase(b1_.back());
      b1_.pop_back();
      if (t1_.size() + t2_.size() >= capacity_) {
        evicted = replace(/*hit_in_b2=*/false);
      }
    } else {
      // B1 empty, T1 full: discard T1's LRU outright (no ghost — the
      // directory slot is needed for the newcomer).
      evicted = t1_.back();
      t1_.pop_back();
      index_.erase(evicted);
    }
  } else if (l1 < capacity_) {
    const std::size_t total = l1 + t2_.size() + b2_.size();
    if (total >= capacity_) {
      if (total == 2 * capacity_ && !b2_.empty()) {
        index_.erase(b2_.back());
        b2_.pop_back();
      }
      if (t1_.size() + t2_.size() >= capacity_) {
        evicted = replace(/*hit_in_b2=*/false);
      }
    }
  }
  t1_.push_front(b);
  index_[b] = {Where::kT1, t1_.begin()};
  trim_ghosts();
  EAS_ENSURE(t1_.size() + t2_.size() <= capacity_);
  return evicted;
}

bool ArcBlockCache::erase(DataId b) {
  auto it = index_.find(b);
  if (it == index_.end()) return false;
  Entry& e = it->second;
  const bool resident = e.where == Where::kT1 || e.where == Where::kT2;
  switch (e.where) {
    case Where::kT1:
      t1_.erase(e.it);
      break;
    case Where::kT2:
      t2_.erase(e.it);
      break;
    case Where::kB1:
      b1_.erase(e.it);
      break;
    case Where::kB2:
      b2_.erase(e.it);
      break;
  }
  index_.erase(it);
  return resident;
}

}  // namespace eas::cache
