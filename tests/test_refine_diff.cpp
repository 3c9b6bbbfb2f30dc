// Differential suite for the offline refinement.
//
// refine_offline_assignment keeps flat per-disk request arrays and
// re-evaluates, after its first pass, only the requests a move marked
// dirty. It promises the exact result of the evaluate-everything std::set
// search kept in reference_solvers.cpp: the same disk for every request
// and the same RefineStats, energy_delta included bit for bit. The sweep
// fingerprints and goldens pin that result, so this suite checks the
// promise on 240 seeded instances: Cello-like and Financial-like traces,
// replication factor 1-3, 4-180 disks, pass limits 0/1/3/8/50, traces with
// injected timestamp ties, and both the MWIS solver seed and the
// densest-pile seed.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/mwis_scheduler.hpp"
#include "core/refine.hpp"
#include "placement/placement.hpp"
#include "reference_solvers.hpp"
#include "trace/synthetic.hpp"

namespace eas::core {
namespace {

struct Instance {
  trace::Trace trace;
  placement::PlacementMap placement;
  OfflineAssignment seed;
  std::size_t passes = 0;
};

constexpr DiskId kDisks[] = {4, 7, 12, 30, 60, 180};
constexpr std::size_t kPasses[] = {0, 1, 3, 8, 50};

/// Instance `id` is a mixed-radix digit string over (workload, seed kind,
/// rf, disks) — 72 combinations, each met by 3-4 of the 240 ids — while
/// the pass limit and tie injection cycle with coprime periods 5 and 7.
Instance make_instance(std::uint64_t id) {
  const bool cello = id % 2 == 0;
  const bool pile = (id / 2) % 2 == 1;
  const unsigned rf = 1 + static_cast<unsigned>((id / 4) % 3);
  const DiskId disks = kDisks[(id / 12) % 6];
  const std::size_t passes = kPasses[id % 5];
  const bool ties = id % 7 < 3;
  const std::uint64_t seed = 100 + id;

  // Small data universes keep the per-disk lists dense enough for moves to
  // interact; request counts stay small because the reference is slow.
  const auto num_data = static_cast<DataId>(40 + (id * 37) % 400);
  trace::SyntheticTraceConfig tc = cello ? trace::cello_like_config(seed)
                                         : trace::financial_like_config(seed);
  tc.num_requests = 300 + (id * 131) % 1500;
  tc.num_data = num_data;
  trace::Trace trace = trace::make_synthetic_trace(tc);
  if (ties) {
    // Quantise arrival times so many requests share a timestamp: the
    // request-index order must then break ties exactly as (time, index).
    const double quantum = 0.05 * static_cast<double>(1 + id % 4);
    std::vector<trace::TraceRecord> records = trace.records();
    for (auto& rec : records) {
      rec.time = std::floor(rec.time / quantum) * quantum;
    }
    trace = trace::Trace(std::move(records));
  }

  placement::ZipfPlacementConfig pc;
  pc.num_disks = disks;
  pc.num_data = num_data;
  pc.replication_factor = rf;
  pc.seed = seed * 3 + 1;
  placement::PlacementMap placement = placement::make_zipf_placement(pc);

  // The unrefined seeds come from the scheduler itself with refinement off.
  MwisOptions opts;
  opts.refine_passes = 0;
  opts.graph.successor_horizon = 1 + id % 4;
  opts.seed =
      pile ? MwisOptions::Seed::kPileOnly : MwisOptions::Seed::kSolverOnly;
  MwisOfflineScheduler sched(opts);
  OfflineAssignment a = sched.schedule(trace, placement, {});
  return Instance{std::move(trace), std::move(placement), std::move(a),
                  passes};
}

void expect_identical(const RefineStats& fast, const RefineStats& ref,
                      const OfflineAssignment& fast_a,
                      const OfflineAssignment& ref_a, std::uint64_t id) {
  EXPECT_EQ(fast_a.disk_of_request, ref_a.disk_of_request) << "id " << id;
  EXPECT_EQ(fast.passes, ref.passes) << "id " << id;
  EXPECT_EQ(fast.moves, ref.moves) << "id " << id;
  EXPECT_EQ(fast.pair_moves, ref.pair_moves) << "id " << id;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.energy_delta),
            std::bit_cast<std::uint64_t>(ref.energy_delta))
      << "id " << id << " fast " << fast.energy_delta << " ref "
      << ref.energy_delta;
}

class RefineDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefineDiffTest, MatchesReferenceExactly) {
  const std::uint64_t id = GetParam();
  const Instance inst = make_instance(id);
  const disk::DiskPowerParams power;

  OfflineAssignment ref_a = inst.seed;
  const RefineStats ref = refine_offline_assignment_reference(
      ref_a, inst.trace, inst.placement, power, inst.passes);
  OfflineAssignment fast_a = inst.seed;
  const RefineStats fast = refine_offline_assignment(
      fast_a, inst.trace, inst.placement, power, inst.passes);
  expect_identical(fast, ref, fast_a, ref_a, id);
}

INSTANTIATE_TEST_SUITE_P(Instances, RefineDiffTest,
                         ::testing::Range<std::uint64_t>(0, 240));

TEST(RefineDiff, SuiteMakesMovesOfBothKinds) {
  // Guards the suite's power: instances that never move would pass any
  // marking rule.
  std::size_t moving = 0;
  std::size_t pair_moving = 0;
  for (std::uint64_t id = 0; id < 240; id += 5) {
    const Instance inst = make_instance(id);
    OfflineAssignment a = inst.seed;
    const auto stats = refine_offline_assignment(a, inst.trace,
                                                 inst.placement, {}, 8);
    if (stats.moves > stats.pair_moves) ++moving;
    if (stats.pair_moves > 0) ++pair_moving;
  }
  EXPECT_GE(moving, 20u);
  EXPECT_GE(pair_moving, 10u);
}

TEST(RefineDiff, WorkspaceReuseAcrossShapesMatchesReference) {
  // One workspace serves instances of different disk counts and lengths in
  // turn, as the scheduler's does across the cells of a sweep.
  RefineWorkspace ws;
  const disk::DiskPowerParams power;
  for (std::uint64_t id : {3u, 10u, 41u, 8u, 125u, 2u}) {
    const Instance inst = make_instance(id);
    OfflineAssignment ref_a = inst.seed;
    const RefineStats ref = refine_offline_assignment_reference(
        ref_a, inst.trace, inst.placement, power, 50);
    OfflineAssignment fast_a = inst.seed;
    const RefineStats fast = refine_offline_assignment(
        fast_a, inst.trace, inst.placement, power, 50, ws);
    expect_identical(fast, ref, fast_a, ref_a, id);
  }
}

}  // namespace
}  // namespace eas::core
