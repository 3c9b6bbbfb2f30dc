// Tests for the placement map and the paper's §4.2 placement builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "placement/placement.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace eas::placement {
namespace {

TEST(PlacementMap, AccessorsReflectConstruction) {
  PlacementMap map(4, {{0, 1}, {2}, {3, 0, 1}});
  EXPECT_EQ(map.num_disks(), 4u);
  EXPECT_EQ(map.num_data(), 3u);
  EXPECT_EQ(map.original(0), 0u);
  EXPECT_EQ(map.original(2), 3u);
  EXPECT_EQ(map.replication_factor(0), 2u);
  EXPECT_EQ(map.replication_factor(1), 1u);
  EXPECT_TRUE(map.stores(0, 1));
  EXPECT_FALSE(map.stores(0, 2));
  EXPECT_TRUE(map.stores(2, 3));
}

TEST(PlacementMap, RejectsEmptyLocations) {
  EXPECT_THROW(PlacementMap(2, {{0}, {}}), InvariantError);
}

TEST(PlacementMap, RejectsOutOfRangeDisk) {
  EXPECT_THROW(PlacementMap(2, {{0, 2}}), InvariantError);
}

TEST(PlacementMap, RejectsDuplicateReplicas) {
  EXPECT_THROW(PlacementMap(3, {{1, 1}}), InvariantError);
}

TEST(PlacementMap, RejectsUnknownDataId) {
  PlacementMap map(2, {{0}});
  EXPECT_THROW(map.locations(5), InvariantError);
}

// The compressed-row constructor enforces the same contract as the nested
// lists, plus well-formed row offsets.
TEST(PlacementMap, CompressedRowsRejectWhatNestedListsReject) {
  // Empty list: data 1's row is empty.
  EXPECT_THROW(PlacementMap(2, {0, 1, 1}, {0}), InvariantError);
  // Duplicate disk.
  EXPECT_THROW(PlacementMap(3, {0, 2}, {1, 1}), InvariantError);
  // Out-of-range disk.
  EXPECT_THROW(PlacementMap(2, {0, 2}, {0, 2}), InvariantError);
  // Offsets that do not start at 0, run backwards or miss the end.
  EXPECT_THROW(PlacementMap(2, {1, 1}, {0}), InvariantError);
  EXPECT_THROW(PlacementMap(2, {0, 2, 1, 2}, {0, 1}), InvariantError);
  EXPECT_THROW(PlacementMap(2, {0, 1}, {0, 1}), InvariantError);
  EXPECT_THROW(PlacementMap(2, {}, {}), InvariantError);
  // No disks at all.
  EXPECT_THROW(PlacementMap(0, {0}, {}), InvariantError);
  // Unknown data id.
  const PlacementMap map(2, {0, 1, 3}, {1, 0, 1});
  EXPECT_EQ(map.num_data(), 2u);
  EXPECT_EQ(map.original(1), 0u);
  EXPECT_THROW(map.locations(2), InvariantError);
  // A duplicate is named per row: the same disk in two rows is fine.
  EXPECT_NO_THROW(PlacementMap(2, {0, 1, 2}, {1, 1}));
}

TEST(PlacementMap, PerDiskDataCountsSumToTotalCopies) {
  PlacementMap map(3, {{0, 1}, {1, 2}, {2}});
  const auto counts = map.per_disk_data_counts();
  EXPECT_EQ(counts, (std::vector<std::size_t>{1, 2, 2}));
}

class ZipfPlacementTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ZipfPlacementTest, EveryDataHasExactlyRfDistinctLocations) {
  ZipfPlacementConfig cfg;
  cfg.num_disks = 20;
  cfg.num_data = 500;
  cfg.replication_factor = GetParam();
  const auto map = make_zipf_placement(cfg);
  EXPECT_EQ(map.num_data(), 500u);
  for (DataId b = 0; b < map.num_data(); ++b) {
    const auto& locs = map.locations(b);
    EXPECT_EQ(locs.size(), GetParam());
    const std::set<DiskId> unique(locs.begin(), locs.end());
    EXPECT_EQ(unique.size(), locs.size()) << "duplicate replica for " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(ReplicationFactors, ZipfPlacementTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(ZipfPlacement, DeterministicInSeed) {
  ZipfPlacementConfig cfg;
  cfg.seed = 77;
  cfg.num_data = 200;
  const auto a = make_zipf_placement(cfg);
  const auto b = make_zipf_placement(cfg);
  for (DataId d = 0; d < a.num_data(); ++d) {
    EXPECT_TRUE(std::ranges::equal(a.locations(d), b.locations(d)));
  }
  cfg.seed = 78;
  const auto c = make_zipf_placement(cfg);
  bool any_diff = false;
  for (DataId d = 0; d < a.num_data(); ++d) {
    if (!std::ranges::equal(a.locations(d), c.locations(d))) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

/// The §4.2 builder as nested per-data lists, drawing from the generator
/// in the same order as make_zipf_placement: the reference its compressed
/// rows must reproduce.
std::vector<std::vector<DiskId>> nested_zipf_lists(
    const ZipfPlacementConfig& cfg) {
  util::Rng rng(cfg.seed);
  std::vector<DiskId> rank_to_disk(cfg.num_disks);
  for (DiskId k = 0; k < cfg.num_disks; ++k) rank_to_disk[k] = k;
  rng.shuffle(rank_to_disk);
  util::ZipfSampler zipf(cfg.num_disks, cfg.zipf_z);
  std::vector<std::vector<DiskId>> locations(cfg.num_data);
  for (auto& locs : locations) {
    locs.push_back(rank_to_disk[zipf.sample(rng)]);
    while (locs.size() < cfg.replication_factor) {
      const auto k = static_cast<DiskId>(rng.next_below(cfg.num_disks));
      if (std::find(locs.begin(), locs.end(), k) == locs.end()) {
        locs.push_back(k);
      }
    }
  }
  return locations;
}

TEST(ZipfPlacement, CompressedRowsMatchTheNestedListBuild) {
  for (unsigned rf = 1; rf <= 5; ++rf) {
    for (double z : {0.0, 1.0}) {
      ZipfPlacementConfig cfg;
      cfg.num_disks = 30;
      cfg.num_data = 3000;
      cfg.replication_factor = rf;
      cfg.zipf_z = z;
      cfg.seed = 40 + rf;
      const auto lists = nested_zipf_lists(cfg);
      const PlacementMap nested(cfg.num_disks, lists);
      const PlacementMap flat = make_zipf_placement(cfg);
      ASSERT_EQ(flat.num_data(), lists.size());
      for (DataId b = 0; b < flat.num_data(); ++b) {
        ASSERT_TRUE(std::ranges::equal(flat.locations(b), lists[b]))
            << "rf " << rf << " z " << z << " data " << b;
        ASSERT_TRUE(std::ranges::equal(flat.locations(b), nested.locations(b)));
      }
      EXPECT_EQ(flat.per_disk_data_counts(), nested.per_disk_data_counts());
    }
  }
}

TEST(ZipfPlacement, OriginalsAreSkewedAtZ1) {
  ZipfPlacementConfig cfg;
  cfg.num_disks = 50;
  cfg.num_data = 20000;
  cfg.replication_factor = 1;
  cfg.zipf_z = 1.0;
  const auto map = make_zipf_placement(cfg);
  auto counts = map.per_disk_data_counts();
  std::sort(counts.begin(), counts.end(), std::greater<>());
  // With z=1 the hottest disk holds ~1/H(50) ~ 22% of originals; the top 5
  // disks must clearly dominate a uniform spread (5/50 = 10%).
  std::size_t top5 = 0;
  for (int i = 0; i < 5; ++i) top5 += counts[i];
  EXPECT_GT(static_cast<double>(top5) / cfg.num_data, 0.4);
}

TEST(ZipfPlacement, OriginalsAreUniformAtZ0) {
  ZipfPlacementConfig cfg;
  cfg.num_disks = 50;
  cfg.num_data = 20000;
  cfg.replication_factor = 1;
  cfg.zipf_z = 0.0;
  const auto map = make_zipf_placement(cfg);
  const auto counts = map.per_disk_data_counts();
  const double expected = 20000.0 / 50.0;
  for (std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, 6.0 * std::sqrt(expected));
  }
}

TEST(ZipfPlacement, ReplicasAreUniformEvenWhenOriginalsAreSkewed) {
  ZipfPlacementConfig cfg;
  cfg.num_disks = 40;
  cfg.num_data = 20000;
  cfg.replication_factor = 2;
  cfg.zipf_z = 1.0;
  const auto map = make_zipf_placement(cfg);
  // Count only the replica (non-original) copies.
  std::vector<std::size_t> replica_counts(cfg.num_disks, 0);
  for (DataId b = 0; b < map.num_data(); ++b) {
    const auto& locs = map.locations(b);
    for (std::size_t i = 1; i < locs.size(); ++i) ++replica_counts[locs[i]];
  }
  const double expected = 20000.0 / 40.0;
  for (std::size_t c : replica_counts) {
    // Allow slack: uniform-distinct rejection vs the original skews mildly.
    EXPECT_NEAR(static_cast<double>(c), expected, 0.35 * expected);
  }
}

TEST(ZipfPlacement, RejectsMoreCopiesThanDisks) {
  ZipfPlacementConfig cfg;
  cfg.num_disks = 3;
  cfg.replication_factor = 4;
  EXPECT_THROW(make_zipf_placement(cfg), InvariantError);
}

}  // namespace
}  // namespace eas::placement
