// Naive reference models of the cache tier's two data structures, written
// from the contracts in src/cache/block_cache.hpp and write_back.hpp rather
// than from their implementations: a std::list LRU and a std::map write-back
// buffer that re-sorts on every query. Deliberately unoptimized — they exist
// so the seeded differentials in test_cache can drive the dense production
// structures and these side by side and compare every observable result.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include "util/ids.hpp"

namespace eas::testing {

/// LRU over a std::list, front = most recently used.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  std::size_t size() const { return list_.size(); }
  bool contains(DataId b) const {
    return std::find(list_.begin(), list_.end(), b) != list_.end();
  }
  bool lookup(DataId b) {
    const auto it = std::find(list_.begin(), list_.end(), b);
    if (it == list_.end()) return false;
    list_.splice(list_.begin(), list_, it);
    return true;
  }
  DataId insert(DataId b) {
    if (capacity_ == 0) return kInvalidData;
    if (lookup(b)) return kInvalidData;
    DataId evicted = kInvalidData;
    if (list_.size() >= capacity_) {
      evicted = list_.back();
      list_.pop_back();
    }
    list_.push_front(b);
    return evicted;
  }
  bool erase(DataId b) {
    const auto it = std::find(list_.begin(), list_.end(), b);
    if (it == list_.end()) return false;
    list_.erase(it);
    return true;
  }

 private:
  std::size_t capacity_;
  std::list<DataId> list_;
};

/// Write-back buffer over a std::map. Every slot carries a stamp from one
/// global counter, taken when it (re-)enters its pending FIFO or is issued;
/// a disk's FIFO and in-flight list are its slots sorted by stamp.
class ReferenceWriteBack {
 public:
  ReferenceWriteBack(std::size_t capacity, std::size_t num_disks)
      : capacity_(capacity), num_disks_(num_disks) {}

  std::size_t size() const { return slots_.size(); }
  bool contains(DataId b) const { return slots_.count(b) != 0; }
  bool is_pending(DataId b) const {
    const auto it = slots_.find(b);
    return it != slots_.end() && !it->second.in_flight;
  }
  double buffered_at(DataId b) const { return slots_.at(b).admitted; }
  DiskId home_of(DataId b) const { return slots_.at(b).home; }
  std::uint64_t pending(DiskId k) const { return group(k, false).size(); }
  std::uint64_t pending_total() const {
    std::uint64_t n = 0;
    for (DiskId k = 0; k < num_disks_; ++k) n += pending(k);
    return n;
  }

  bool put(DataId b, DiskId k, double now) {
    const auto it = slots_.find(b);
    if (it != slots_.end()) {
      Slot& s = it->second;
      if (s.in_flight) {  // the racing write is stale: back to the FIFO
        s.in_flight = false;
        s.admitted = now;
        s.stamp = next_stamp_++;
      }
      return true;
    }
    if (slots_.size() >= capacity_) return false;
    slots_[b] = Slot{k, now, false, kInvalidRequest, next_stamp_++};
    return true;
  }

  std::size_t begin_destage(DiskId k, std::size_t max_blocks,
                            RequestId first_id, std::vector<DataId>& out) {
    const std::vector<DataId> fifo = group(k, false);
    std::size_t issued = 0;
    for (; issued < std::min(max_blocks, fifo.size()); ++issued) {
      Slot& s = slots_.at(fifo[issued]);
      s.in_flight = true;
      s.destage_id = first_id + issued;
      s.stamp = next_stamp_++;
      out.push_back(fifo[issued]);
    }
    return issued;
  }

  bool complete(DataId b, RequestId destage_id) {
    const auto it = slots_.find(b);
    if (it == slots_.end() || !it->second.in_flight ||
        it->second.destage_id != destage_id) {
      return false;
    }
    slots_.erase(it);
    return true;
  }

  std::size_t drain(DiskId k, std::vector<DataId>& out) {
    std::vector<DataId> drained = group(k, true);
    const std::vector<DataId> fifo = group(k, false);
    drained.insert(drained.end(), fifo.begin(), fifo.end());
    for (const DataId b : drained) {
      slots_.erase(b);
      out.push_back(b);
    }
    return drained.size();
  }

 private:
  struct Slot {
    DiskId home;
    double admitted;
    bool in_flight;
    RequestId destage_id;
    std::uint64_t stamp;
  };

  /// Disk k's in-flight (or pending) blocks in stamp order.
  std::vector<DataId> group(DiskId k, bool in_flight) const {
    std::vector<std::pair<std::uint64_t, DataId>> v;
    for (const auto& [b, s] : slots_) {
      if (s.home == k && s.in_flight == in_flight) v.emplace_back(s.stamp, b);
    }
    std::sort(v.begin(), v.end());
    std::vector<DataId> out;
    for (const auto& e : v) out.push_back(e.second);
    return out;
  }

  std::size_t capacity_;
  std::size_t num_disks_;
  std::map<DataId, Slot> slots_;
  std::uint64_t next_stamp_ = 0;
};

}  // namespace eas::testing
