// Data placement: which disks hold a copy of each data item.
//
// The scheduler never *chooses* placement (the paper's central claim is
// non-interference with whatever placement the file system uses); it only
// reads it. PlacementMap is therefore immutable after construction.
//
// The builder reproduces the paper's evaluation placement (§4.2): the
// original copy of each data item lands on a disk drawn from a Zipf-like
// distribution p(rank) = c / rank^z over the disks (z swept 0..1 in
// Appendix A.1), and the remaining replication_factor-1 copies land on
// distinct uniformly-random other disks — the fault-tolerance-style spread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace eas::placement {

class PlacementMap {
 public:
  /// `locations[b]` lists the disks storing data b; the first entry is the
  /// original location, the rest are replicas. Throws InvariantError if any
  /// list is empty, contains duplicates, or references a disk out of range.
  PlacementMap(DiskId num_disks,
               const std::vector<std::vector<DiskId>>& locations);

  /// The same map in compressed rows: data b's disks are
  /// `disks[offsets[b] .. offsets[b + 1])`, original first. Validated as
  /// above; `offsets` must start at 0, never decrease and end at
  /// disks.size().
  PlacementMap(DiskId num_disks, std::vector<std::uint32_t> offsets,
               std::vector<DiskId> disks);

  DiskId num_disks() const { return num_disks_; }
  DataId num_data() const { return static_cast<DataId>(offsets_.size() - 1); }

  /// All replica locations of `b` (original first).
  std::span<const DiskId> locations(DataId b) const {
    EAS_CHECK_MSG(b < num_data(), "unknown data id " << b);
    return {disks_.data() + offsets_[b], disks_.data() + offsets_[b + 1]};
  }

  /// The original (primary) location of `b`.
  DiskId original(DataId b) const { return locations(b).front(); }

  /// Number of copies of `b`.
  std::size_t replication_factor(DataId b) const { return locations(b).size(); }

  /// True if disk k holds a copy of data b (linear scan; replica lists are
  /// tiny — the paper sweeps factors 1..5).
  bool stores(DataId b, DiskId k) const {
    const std::span<const DiskId> locs = locations(b);
    return std::find(locs.begin(), locs.end(), k) != locs.end();
  }

  /// Number of distinct data items with a copy on each disk; used by tests
  /// to verify the configured skew.
  std::vector<std::size_t> per_disk_data_counts() const;

 private:
  /// Checks every row against the constructor contract.
  void validate() const;

  DiskId num_disks_;
  std::vector<std::uint32_t> offsets_;  ///< num_data() + 1 row starts
  std::vector<DiskId> disks_;           ///< every row, back to back
};

/// Configuration for the paper's evaluation placement.
struct ZipfPlacementConfig {
  DiskId num_disks = 180;       ///< §4.2: 180-disk system
  DataId num_data = 30000;      ///< §4.1: >30,000 distinct data
  unsigned replication_factor = 3;  ///< total copies incl. original, 1..5
  double zipf_z = 1.0;          ///< original-location skew (0 = uniform)
  std::uint64_t seed = 42;
};

/// Builds the §4.2 placement. Deterministic in the seed.
PlacementMap make_zipf_placement(const ZipfPlacementConfig& cfg);

}  // namespace eas::placement
