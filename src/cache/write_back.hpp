// Write-back buffer with per-disk destage grouping.
//
// Dirty blocks live in NVRAM-modelled slots, grouped by home disk so a
// destage batch touches exactly one disk. The buffer itself makes no timing
// or power decisions — the storage system decides *when* to destage
// (piggyback on a spinning disk, watermark pressure, or deadline) and the
// buffer hands out batches in FIFO admission order per disk, which keeps the
// destage stream a pure function of the write stream (determinism contract).
//
// Block lifecycle within the buffer:
//
//   put() ──► pending (in its home disk's FIFO)
//     │            │ begin_destage()
//     │            ▼
//     │        in-flight (internal write issued to the disk)
//     │            │ complete()                │ home disk dies
//     ▼            ▼                           ▼
//   overwrite   slot freed                 drain() → re-homed or lost
//
// A put() of an already-buffered block refreshes its payload in place (one
// slot per block — last write wins, no duplicate destage). drain(k) empties
// disk k's group (pending AND in-flight, since a dead disk completes
// nothing) so the caller can re-home each block via the placement map.
//
// Each destage is issued under a request id the caller supplies, and
// complete() must name it: a block re-put while a destage races to disk and
// then destaged again has two writes in flight, and only the newest may
// retire the slot.
//
// Layout: no hash map and no per-block node. Slots live in a slab of
// min(capacity, num_data) entries, reached through a per-DataId slot index
// sized once from the placement's num_data; each disk's pending FIFO and
// in-flight list are intrusive doubly linked lists threaded through the
// slots. put, begin_destage and complete allocate nothing after
// construction (begin_destage and drain only append to the caller's
// vector).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/ids.hpp"

namespace eas::cache {

class WriteBackBuffer {
 public:
  /// Blocks `b` must satisfy b < num_data; home disks k < num_disks.
  WriteBackBuffer(std::size_t capacity_blocks, std::size_t num_disks,
                  std::size_t num_data);

  std::size_t capacity() const { return capacity_; }
  /// Buffered blocks, pending + in-flight.
  std::size_t size() const { return size_; }
  bool full() const { return size_ >= capacity_; }

  /// True when `b` is buffered (pending or in-flight). The authoritative
  /// copy of a dirty block is here until complete() lands it on disk.
  bool contains(DataId b) const { return slot_of(b) != kNone; }

  /// Pending (not yet issued) blocks homed on disk `k` — the dirty-set
  /// pressure the schedulers read.
  std::uint64_t pending(DiskId k) const { return pending_[k]; }
  /// pending(k) of every disk, by disk; valid as long as the buffer.
  std::span<const std::uint64_t> pending_counts() const { return pending_; }
  /// Pending blocks across all disks = what would remain resident after
  /// every in-flight destage lands.
  std::uint64_t pending_total() const { return pending_total_; }
  /// True when `b` is buffered and not in flight.
  bool is_pending(DataId b) const {
    const std::uint32_t s = slot_of(b);
    return s != kNone && !slots_[s].in_flight;
  }
  std::size_t num_disks() const { return groups_.size(); }

  /// Admission time of `b` (for deadline checks); requires contains(b).
  double buffered_at(DataId b) const;
  /// Home disk of `b`; requires contains(b).
  DiskId home_of(DataId b) const;

  /// Buffers `b` homed on `k` at time `now`. Re-putting a still-pending
  /// block refreshes it in place (keeps its queue position and admission
  /// time; the destage will carry the newest payload). Re-putting an
  /// *in-flight* block re-enters it at the tail of its home FIFO with a
  /// fresh admission time — the write racing to disk is stale, and its
  /// complete() will be ignored. Returns false when the buffer is full —
  /// the caller must fall back to write-through.
  bool put(DataId b, DiskId k, double now);

  /// Moves up to `max_blocks` of disk `k`'s pending blocks (FIFO order)
  /// into the in-flight set, appending them to `out`. The i-th block moved
  /// (from 0) is issued under destage request id `first_id + i`. Returns
  /// the count.
  std::size_t begin_destage(DiskId k, std::size_t max_blocks,
                            RequestId first_id, std::vector<DataId>& out);

  /// Marks the destage of `b` issued under `destage_id` complete and frees
  /// its slot. Tolerates stale completions — the block was drained after a
  /// disk death, re-put since, or is in flight again under a newer id:
  /// returns false and does nothing.
  bool complete(DataId b, RequestId destage_id);

  /// Empties disk `k`'s whole group — pending and in-flight — appending the
  /// blocks to `out` in admission order. Used on disk death; the caller
  /// re-homes each block or counts it lost.
  std::size_t drain(DiskId k, std::vector<DataId>& out);

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Slot {
    DataId block;
    DiskId home;
    double admitted;
    RequestId destage_id;  ///< the in-flight write's id while in_flight
    std::uint32_t prev;    ///< neighbours in the home group's list
    std::uint32_t next;    ///< (also chains the free list)
    bool in_flight;
  };
  /// An intrusive FIFO of slots: append at the tail, unlink anywhere.
  struct SlotList {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };
  /// One home disk's dirty group. Pending entries leave only via
  /// begin_destage() or drain(); in-flight ones stay in issue order.
  struct Group {
    SlotList pending;
    SlotList inflight;
  };

  std::uint32_t slot_of(DataId b) const {
    return b < slot_of_.size() ? slot_of_[b] : kNone;
  }
  void append(SlotList& l, std::uint32_t s);
  void unlink(SlotList& l, std::uint32_t s);
  void release(std::uint32_t s);

  std::size_t capacity_;
  std::vector<Slot> slots_;             // min(capacity, num_data), fixed
  std::vector<std::uint32_t> slot_of_;  // DataId -> slot, kNone when absent
  std::vector<Group> groups_;           // one per home disk
  std::vector<std::uint64_t> pending_;  // pending(k) per home disk
  std::uint32_t free_ = kNone;          // released slots, chained by next
  std::uint32_t used_ = 0;              // slots ever handed out (prefix)
  std::size_t size_ = 0;
  std::uint64_t pending_total_ = 0;
};

}  // namespace eas::cache
