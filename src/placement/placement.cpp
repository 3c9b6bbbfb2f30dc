#include "placement/placement.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/check.hpp"
#include "util/zipf.hpp"

namespace eas::placement {

PlacementMap::PlacementMap(DiskId num_disks,
                           const std::vector<std::vector<DiskId>>& locations)
    : num_disks_(num_disks) {
  offsets_.reserve(locations.size() + 1);
  offsets_.push_back(0);
  std::size_t total = 0;
  for (const auto& locs : locations) total += locs.size();
  EAS_REQUIRE_MSG(total <= std::numeric_limits<std::uint32_t>::max(),
                  "placement has " << total << " copies, more than rows can "
                                      "index");
  disks_.reserve(total);
  for (const auto& locs : locations) {
    disks_.insert(disks_.end(), locs.begin(), locs.end());
    offsets_.push_back(static_cast<std::uint32_t>(disks_.size()));
  }
  validate();
}

PlacementMap::PlacementMap(DiskId num_disks, std::vector<std::uint32_t> offsets,
                           std::vector<DiskId> disks)
    : num_disks_(num_disks),
      offsets_(std::move(offsets)),
      disks_(std::move(disks)) {
  EAS_REQUIRE_MSG(!offsets_.empty() && offsets_.front() == 0 &&
                      offsets_.back() == disks_.size(),
                  "placement rows must start at 0 and end at "
                      << disks_.size());
  validate();
}

void PlacementMap::validate() const {
  EAS_REQUIRE_MSG(num_disks_ > 0, "placement needs at least one disk");
  // Per-disk stamp of the last row that listed it: a duplicate copy shows
  // up as a disk already stamped with the current row.
  constexpr DataId kNone = ~DataId{0};
  std::vector<DataId> seen(num_disks_, kNone);
  for (DataId b = 0; b < num_data(); ++b) {
    EAS_REQUIRE_MSG(offsets_[b] <= offsets_[b + 1] &&
                        offsets_[b + 1] <= disks_.size(),
                    "placement row " << b << " spans [" << offsets_[b] << ", "
                                     << offsets_[b + 1] << ") of "
                                     << disks_.size() << " entries");
    const std::span<const DiskId> locs = locations(b);
    EAS_REQUIRE_MSG(!locs.empty(), "data " << b << " has no location");
    // Replica-count bound: distinct disks, so at most num_disks copies.
    EAS_REQUIRE_MSG(locs.size() <= num_disks_,
                    "data " << b << " has " << locs.size()
                            << " replicas on a " << num_disks_
                            << "-disk system");
    for (DiskId k : locs) {
      EAS_REQUIRE_MSG(k < num_disks_,
                      "data " << b << " placed on out-of-range disk " << k);
    }
    // Duplicate copies on one disk are meaningless for scheduling and would
    // silently inflate the replica choice set.
    for (DiskId k : locs) {
      EAS_CHECK_MSG(seen[k] != b, "data " << b << " has duplicate locations");
      seen[k] = b;
    }
  }
}

std::vector<std::size_t> PlacementMap::per_disk_data_counts() const {
  std::vector<std::size_t> counts(num_disks_, 0);
  for (DiskId k : disks_) ++counts[k];
  return counts;
}

PlacementMap make_zipf_placement(const ZipfPlacementConfig& cfg) {
  EAS_CHECK_MSG(cfg.replication_factor >= 1, "need at least one copy");
  EAS_CHECK_MSG(cfg.replication_factor <= cfg.num_disks,
                "more copies than disks");
  EAS_CHECK(cfg.num_data > 0);

  util::Rng rng(cfg.seed);

  // Random rank->disk mapping so that "rank 1" is not always disk 0; the
  // skew profile is what matters, not which physical disk is hottest.
  std::vector<DiskId> rank_to_disk(cfg.num_disks);
  std::iota(rank_to_disk.begin(), rank_to_disk.end(), DiskId{0});
  rng.shuffle(rank_to_disk);

  util::ZipfSampler zipf(cfg.num_disks, cfg.zipf_z);

  // The rows are built in place, back to back: each data item appends its
  // copies to one flat array.
  std::vector<std::uint32_t> offsets;
  offsets.reserve(std::size_t{cfg.num_data} + 1);
  offsets.push_back(0);
  std::vector<DiskId> disks;
  disks.reserve(std::size_t{cfg.num_data} * cfg.replication_factor);
  for (DataId b = 0; b < cfg.num_data; ++b) {
    const std::size_t first = disks.size();
    disks.push_back(rank_to_disk[zipf.sample(rng)]);
    // Uniform distinct replicas (rejection sampling; replica counts are tiny
    // relative to 180 disks so collisions are rare).
    while (disks.size() - first < cfg.replication_factor) {
      const auto k = static_cast<DiskId>(rng.next_below(cfg.num_disks));
      if (std::find(disks.begin() + static_cast<std::ptrdiff_t>(first),
                    disks.end(), k) == disks.end()) {
        disks.push_back(k);
      }
    }
    EAS_ENSURE_MSG(disks.size() - first == cfg.replication_factor,
                   "data " << b << " got " << disks.size() - first
                           << " replicas, want " << cfg.replication_factor);
    offsets.push_back(static_cast<std::uint32_t>(disks.size()));
  }
  return PlacementMap(cfg.num_disks, std::move(offsets), std::move(disks));
}

}  // namespace eas::placement
