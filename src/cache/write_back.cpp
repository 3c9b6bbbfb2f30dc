#include "cache/write_back.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace eas::cache {

WriteBackBuffer::WriteBackBuffer(std::size_t capacity_blocks,
                                 std::size_t num_disks, std::size_t num_data)
    : capacity_(capacity_blocks), groups_(num_disks) {
  EAS_REQUIRE_MSG(num_data <= kInvalidData,
                  num_data << " block ids exceed the 32-bit DataId range");
  // At most num_data distinct blocks can be buffered at once.
  slots_.resize(std::min(capacity_blocks, num_data));
  slot_of_.assign(num_data, kNone);
}

double WriteBackBuffer::buffered_at(DataId b) const {
  const std::uint32_t s = slot_of(b);
  EAS_REQUIRE_MSG(s != kNone, "block " << b << " not buffered");
  return slots_[s].admitted;
}

DiskId WriteBackBuffer::home_of(DataId b) const {
  const std::uint32_t s = slot_of(b);
  EAS_REQUIRE_MSG(s != kNone, "block " << b << " not buffered");
  return slots_[s].home;
}

void WriteBackBuffer::append(SlotList& l, std::uint32_t s) {
  slots_[s].prev = l.tail;
  slots_[s].next = kNone;
  (l.tail != kNone ? slots_[l.tail].next : l.head) = s;
  l.tail = s;
}

void WriteBackBuffer::unlink(SlotList& l, std::uint32_t s) {
  const Slot& x = slots_[s];
  (x.prev != kNone ? slots_[x.prev].next : l.head) = x.next;
  (x.next != kNone ? slots_[x.next].prev : l.tail) = x.prev;
}

void WriteBackBuffer::release(std::uint32_t s) {
  slot_of_[slots_[s].block] = kNone;
  slots_[s].next = free_;
  free_ = s;
  --size_;
}

bool WriteBackBuffer::put(DataId b, DiskId k, double now) {
  EAS_REQUIRE_MSG(k < groups_.size(), "home disk " << k << " out of range");
  std::uint32_t s = slot_of(b);
  if (s != kNone) {
    Slot& x = slots_[s];
    if (!x.in_flight) {
      // Overwrite in place: the slot keeps its home, queue position and
      // admission time; the eventual destage carries the newest payload.
      return true;
    }
    // The copy racing to disk is stale now. Re-enter the block at the tail
    // of its home FIFO; the in-flight write's complete() becomes a no-op.
    Group& g = groups_[x.home];
    unlink(g.inflight, s);
    x.in_flight = false;
    x.admitted = now;
    append(g.pending, s);
    ++g.pending_count;
    ++pending_total_;
    return true;
  }
  if (size_ >= capacity_) return false;
  EAS_REQUIRE_MSG(b < slot_of_.size(),
                  "block " << b << " outside the buffer's id range "
                           << slot_of_.size());
  if (free_ != kNone) {
    s = free_;
    free_ = slots_[s].next;
  } else {
    EAS_ASSERT(used_ < slots_.size());  // else a released slot leaked
    s = used_++;
  }
  Slot& x = slots_[s];
  x.block = b;
  x.home = k;
  x.admitted = now;
  x.destage_id = kInvalidRequest;
  x.in_flight = false;
  slot_of_[b] = s;
  ++size_;
  Group& g = groups_[k];
  append(g.pending, s);
  ++g.pending_count;
  ++pending_total_;
  return true;
}

std::size_t WriteBackBuffer::begin_destage(DiskId k, std::size_t max_blocks,
                                           RequestId first_id,
                                           std::vector<DataId>& out) {
  EAS_REQUIRE_MSG(k < groups_.size(), "disk " << k << " out of range");
  Group& g = groups_[k];
  std::size_t issued = 0;
  while (issued < max_blocks && g.pending.head != kNone) {
    const std::uint32_t s = g.pending.head;
    Slot& x = slots_[s];
    EAS_ASSERT(x.home == k && !x.in_flight);
    unlink(g.pending, s);
    x.in_flight = true;
    x.destage_id = first_id + issued;
    append(g.inflight, s);
    out.push_back(x.block);
    ++issued;
  }
  g.pending_count -= issued;
  pending_total_ -= issued;
  return issued;
}

bool WriteBackBuffer::complete(DataId b, RequestId destage_id) {
  const std::uint32_t s = slot_of(b);
  if (s == kNone || !slots_[s].in_flight ||
      slots_[s].destage_id != destage_id) {
    return false;
  }
  unlink(groups_[slots_[s].home].inflight, s);
  release(s);
  return true;
}

std::size_t WriteBackBuffer::drain(DiskId k, std::vector<DataId>& out) {
  EAS_REQUIRE_MSG(k < groups_.size(), "disk " << k << " out of range");
  Group& g = groups_[k];
  std::size_t drained = 0;
  // In-flight first (they were admitted earliest), then pending, each in
  // admission order — the re-home order stays deterministic.
  for (SlotList* l : {&g.inflight, &g.pending}) {
    for (std::uint32_t s = l->head; s != kNone;) {
      const std::uint32_t next = slots_[s].next;
      out.push_back(slots_[s].block);
      release(s);
      ++drained;
      s = next;
    }
    *l = SlotList{};
  }
  pending_total_ -= g.pending_count;
  g.pending_count = 0;
  return drained;
}

}  // namespace eas::cache
