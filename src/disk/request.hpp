// I/O request records exchanged between scheduler, disks and metrics.
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"
#include "util/ids.hpp"

namespace eas::disk {

/// What a queued request is for. The paper routes only foreground reads;
/// the tiers add the other three. The kind, not the id, tells them apart:
/// ids are only unique within a kind.
enum class RequestKind : std::uint8_t {
  kForeground = 0,  ///< a trace request; id = trace index
  kHedge,           ///< reliability tier's second copy of a foreground read;
                    ///< id = the primary's id
  kRebuild,         ///< fault tier's re-replication read or write;
                    ///< id = rebuild epoch, target = disk being rebuilt
  kDestage,         ///< cache tier's write-back of a dirty block;
                    ///< id = destage sequence number
};

/// Rebuild and destage traffic is synthesized by the storage system itself:
/// it competes for disk time like any request but is excluded from the
/// foreground response-time and availability metrics.
constexpr bool is_internal(RequestKind k) { return k >= RequestKind::kRebuild; }

/// Request::slot of a request without an in-flight table entry.
inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/// A read request for one data block (the paper: ~512 KB file block).
struct Request {
  RequestId id = 0;
  DataId data = kInvalidData;
  /// Direction. Disks serve both identically (the paper's service model is
  /// symmetric); the cache tier branches on it — reads probe the block
  /// cache, writes may be absorbed by the write-back buffer.
  bool is_read = true;
  RequestKind kind = RequestKind::kForeground;
  /// Disk an internal transfer serves (the rebuild target); kInvalidDisk
  /// for every other kind.
  DiskId target = kInvalidDisk;
  /// The storage system's in-flight table slot of a foreground request (and
  /// of its hedge copy) under the reliability tier; kNoSlot otherwise.
  /// Slots are reused, so the slot and the id together name the entry.
  std::uint32_t slot = kNoSlot;
  unsigned long size_bytes = 512 * 1024;
  /// When the request entered the storage system.
  sim::SimTime arrival_time = 0.0;
  /// When the scheduler dispatched it to a disk (>= arrival under batching).
  sim::SimTime dispatch_time = 0.0;
};

// The slot sits in what was padding after `target`; requests are copied
// through every disk queue, so they must not grow.
static_assert(sizeof(Request) == 48);

/// Completion record emitted by a disk.
struct Completion {
  Request request;
  DiskId disk = kInvalidDisk;
  sim::SimTime service_start = 0.0;  ///< transfer began
  sim::SimTime completion_time = 0.0;
  bool waited_for_spinup = false;  ///< any part of the wait was spin-up/down

  /// End-to-end response time as the paper measures it: completion minus
  /// system arrival (includes batching queue delay and spin-up delay).
  double response_seconds() const { return completion_time - request.arrival_time; }
};

}  // namespace eas::disk
