// FailureView: the live health overlay the placement consumers consult.
//
// PlacementMap stays immutable (the paper's non-interference claim); what
// changes under faults is *visibility*: a replica is readable only while its
// disk is up and no latent sector error covers its block. Schedulers filter
// candidate replica sets through this view, the storage system enforces at
// dispatch time that a dead disk never receives a request, and the power
// manager pins rebuilding disks active.
//
// The view also owns the degraded-time accounting: every mutation carries
// the simulated timestamp, and the view integrates the span during which
// any disk is down/rebuilding or any block range is lost.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "placement/placement.hpp"
#include "util/ids.hpp"

namespace eas::fault {

enum class DiskHealth : std::uint8_t {
  kUp = 0,          ///< serving foreground I/O
  kDown = 1,        ///< fail-stopped or timed out: receives nothing
  kRebuilding = 2,  ///< back online, replaying lost data: internal I/O only
};

class FailureView {
 public:
  explicit FailureView(DiskId num_disks);

  DiskId num_disks() const { return static_cast<DiskId>(health_.size()); }
  DiskHealth health(DiskId k) const { return health_.at(k); }
  bool disk_up(DiskId k) const { return health_.at(k) == DiskHealth::kUp; }

  /// True while any fault is visible (disk not up, or a lost block range).
  /// Schedulers use this as the fast path: when false they read the raw
  /// placement lists, so a fault-capable run with no active fault makes
  /// identical decisions to a fault-free one.
  bool degraded() const { return not_up_ != 0 || lost_ranges_ != 0; }

  /// True when a foreground read of data b from disk k can succeed now:
  /// the disk is up and no lost range covers b.
  bool replica_readable(DataId b, DiskId k) const;

  /// True when disk k may receive *any* request (foreground or rebuild):
  /// everything except kDown. Rebuild writes target kRebuilding disks.
  bool accepts_io(DiskId k) const { return health_.at(k) != DiskHealth::kDown; }

  /// Fills `out` with the readable replicas of b in placement order.
  /// Returns false when none survive.
  bool live_locations(const placement::PlacementMap& pm, DataId b,
                      std::vector<DiskId>& out) const;

  /// First readable replica of b in placement order, or kInvalidDisk.
  DiskId first_live(const placement::PlacementMap& pm, DataId b) const;

  /// True while a rebuild/scrub is re-replicating onto k; the power policy
  /// must not spin such a disk down (pinned-active).
  bool rebuild_in_progress(DiskId k) const { return pinned_.at(k); }

  // --- mutation (fault injector / storage system only) -------------------
  // Every mutator takes the simulated time so degraded-span accounting is
  // exact; `now` must be monotone across calls.

  void set_health(double now, DiskId k, DiskHealth h);
  void set_rebuild_pin(double now, DiskId k, bool pinned);
  /// Marks blocks [lo, hi] on k unreadable. Overlapping ranges coalesce.
  void add_lost_range(double now, DiskId k, DataId lo, DataId hi);
  /// Restores blocks [lo, hi] on k (scrub/rebuild finished).
  void clear_lost_range(double now, DiskId k, DataId lo, DataId hi);
  bool has_lost_ranges(DiskId k) const { return !lost_.at(k).empty(); }

  /// Closes the open degraded episode (if any) at `horizon` and returns the
  /// accumulated (seconds, episodes). Call once when the run finishes.
  std::pair<double, std::uint64_t> finalize_degraded(double horizon);

  double degraded_seconds() const { return degraded_seconds_; }
  std::uint64_t degraded_episodes() const { return degraded_episodes_; }

 private:
  void note_mutation(double now, bool was_degraded);

  std::vector<DiskHealth> health_;
  std::vector<std::uint8_t> pinned_;
  /// Per-disk sorted, disjoint inclusive [lo, hi] lost block ranges. Tiny in
  /// practice (a handful of scripted LSEs), so linear scans are fine.
  std::vector<std::vector<std::pair<DataId, DataId>>> lost_;
  std::size_t not_up_ = 0;
  std::size_t lost_ranges_ = 0;

  double degraded_since_ = 0.0;
  double degraded_seconds_ = 0.0;
  std::uint64_t degraded_episodes_ = 0;
};

}  // namespace eas::fault
