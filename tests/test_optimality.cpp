// Optimality cross-validation against brute force.
//
// Theorem 1 says the conflict-graph MWIS optimum equals the offline
// scheduling optimum; Theorem 2 says a batch round reduces to weighted set
// cover. Both are verified here by exhaustive enumeration of all rf^N
// assignments on small random instances — the strongest evidence this
// implementation matches the paper's formulation, beyond the single worked
// example.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/mwis_scheduler.hpp"
#include "core/offline_eval.hpp"
#include "graph/set_cover.hpp"
#include "placement/placement.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace eas::core {
namespace {

struct Instance {
  placement::PlacementMap placement;
  trace::Trace trace;
};

Instance random_instance(std::uint64_t seed, std::size_t num_requests,
                         DiskId num_disks, unsigned rf, double max_gap) {
  util::Rng rng(seed);
  const DataId num_data = static_cast<DataId>(num_requests);  // fresh data
  std::vector<std::vector<DiskId>> locs(num_data);
  for (DataId b = 0; b < num_data; ++b) {
    while (locs[b].size() < rf) {
      const auto k = static_cast<DiskId>(rng.next_below(num_disks));
      if (std::find(locs[b].begin(), locs[b].end(), k) == locs[b].end()) {
        locs[b].push_back(k);
      }
    }
  }
  std::vector<trace::TraceRecord> recs;
  double t = 0.0;
  for (std::size_t i = 0; i < num_requests; ++i) {
    t += rng.uniform(0.1, max_gap);
    recs.push_back({t, static_cast<DataId>(i), 4096, true});
  }
  return Instance{placement::PlacementMap(num_disks, std::move(locs)),
                  trace::Trace(std::move(recs))};
}

/// Enumerates every valid assignment and returns the minimum Lemma-1 energy.
double brute_force_min_energy(const Instance& inst,
                              const disk::DiskPowerParams& power,
                              double horizon) {
  const std::size_t n = inst.trace.size();
  OfflineAssignment a;
  a.disk_of_request.assign(n, 0);
  std::vector<std::size_t> choice(n, 0);
  double best = std::numeric_limits<double>::infinity();
  while (true) {
    for (std::size_t i = 0; i < n; ++i) {
      a.disk_of_request[i] =
          inst.placement.locations(inst.trace[i].data)[choice[i]];
    }
    best = std::min(best, evaluate_offline(inst.trace, a,
                                           inst.placement.num_disks(), power,
                                           horizon)
                              .total_energy());
    // Odometer increment over the mixed-radix choice vector.
    std::size_t pos = 0;
    while (pos < n) {
      if (++choice[pos] <
          inst.placement.locations(inst.trace[pos].data).size()) {
        break;
      }
      choice[pos] = 0;
      ++pos;
    }
    if (pos == n) break;
  }
  return best;
}

disk::DiskPowerParams small_power() {
  disk::DiskPowerParams p;
  p.idle_watts = 1.0;
  p.active_watts = 1.0;
  p.standby_watts = 0.0;
  p.spinup_watts = 2.0;
  p.spindown_watts = 1.0;
  p.spinup_seconds = 1.0;
  p.spindown_seconds = 1.0;  // E = 3 J, T_B = 3 s, window = 5 s
  return p;
}

class ExactMwisOptimalityTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactMwisOptimalityTest, ExactSchedulerMatchesBruteForce) {
  // 7 requests x rf 2 on 4 disks: 128 assignments, exact MWIS stays small.
  const auto inst = random_instance(GetParam(), 7, 4, 2, 4.0);
  const auto power = small_power();
  // Fixed horizon so every assignment is scored over the same window.
  const double horizon = inst.trace.end_time() + power.breakeven_seconds() +
                         power.spindown_seconds;

  MwisOptions opts;
  opts.algorithm = MwisOptions::Algorithm::kExact;
  opts.graph.successor_horizon = 7;  // all pairs: the paper's formulation
  opts.exact_vertex_limit = 200;
  opts.refine_passes = 0;  // pure Theorem 1 pipeline
  MwisOfflineScheduler sched(opts);
  const auto assignment =
      sched.schedule(inst.trace, inst.placement, power);
  const double mwis_energy =
      evaluate_offline(inst.trace, assignment, inst.placement.num_disks(),
                       power, horizon)
          .total_energy();

  const double best = brute_force_min_energy(inst, power, horizon);
  EXPECT_NEAR(mwis_energy, best, 1e-9) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactMwisOptimalityTest,
                         ::testing::Range<std::uint64_t>(1, 16));

class GreedyGapTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyGapTest, GwminPlusRefineIsNeverBelowBruteForceOptimum) {
  const auto inst = random_instance(GetParam() + 100, 8, 4, 2, 3.0);
  const auto power = small_power();
  const double horizon = inst.trace.end_time() + power.breakeven_seconds() +
                         power.spindown_seconds;

  MwisOptions opts;  // production defaults: GWMIN + refinement
  opts.graph.successor_horizon = 4;
  MwisOfflineScheduler sched(opts);
  const auto assignment = sched.schedule(inst.trace, inst.placement, power);
  const double energy =
      evaluate_offline(inst.trace, assignment, inst.placement.num_disks(),
                       power, horizon)
          .total_energy();
  const double best = brute_force_min_energy(inst, power, horizon);
  EXPECT_GE(energy, best - 1e-9);
  // Loose sanity bound: the heuristic stays within 2x of optimal on these
  // tiny instances (it is usually exact).
  EXPECT_LE(energy, 2.0 * best + 1e-9) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyGapTest,
                         ::testing::Range<std::uint64_t>(1, 16));

class BatchSetCoverTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchSetCoverTest, Theorem2ExactCoverEqualsBruteForceBatchEnergy) {
  // All requests concurrent, all disks standby, 0 W standby power: per
  // Theorem 2 the minimum batch energy equals the minimum-weight set cover
  // with every candidate disk weighing one full wake cycle.
  util::Rng rng(GetParam());
  const DiskId num_disks = 5;
  const std::size_t n = 7;
  const auto power = small_power();

  std::vector<std::vector<DiskId>> locs(n);
  for (auto& l : locs) {
    const unsigned rf = 1 + static_cast<unsigned>(rng.next_below(3));
    while (l.size() < rf) {
      const auto k = static_cast<DiskId>(rng.next_below(num_disks));
      if (std::find(l.begin(), l.end(), k) == l.end()) l.push_back(k);
    }
  }
  placement::PlacementMap placement(num_disks, std::move(locs));
  std::vector<trace::TraceRecord> recs;
  for (std::size_t i = 0; i < n; ++i) {
    recs.push_back({1.0, static_cast<DataId>(i), 4096, true});
  }
  const trace::Trace trace(std::move(recs));
  const Instance inst{placement, trace};
  const double horizon = 1.0 + power.breakeven_seconds() +
                         power.spindown_seconds + power.spinup_seconds;

  std::vector<graph::SetSpec> sets;
  for (DiskId k = 0; k < num_disks; ++k) {
    graph::SetSpec s;
    s.weight = power.max_request_energy();
    for (std::uint32_t e = 0; e < n; ++e) {
      if (placement.stores(trace[e].data, k)) s.elements.push_back(e);
    }
    if (!s.elements.empty()) sets.push_back(std::move(s));
  }
  const auto cover = graph::make_set_cover(n, sets);
  const auto exact = graph::exact_set_cover(cover);
  ASSERT_TRUE(exact.has_value());

  const double best = brute_force_min_energy(inst, power, horizon);
  EXPECT_NEAR(exact->total_weight, best, 1e-9) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchSetCoverTest,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace eas::core
