// End-to-end validation against the paper's §2.3 / Fig 2-4 worked examples.
// These are the strongest correctness anchors in the repository: every
// number asserted below appears in the paper's running text.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/conflict_graph.hpp"
#include "core/energy_model.hpp"
#include "core/mwis_scheduler.hpp"
#include "core/offline_eval.hpp"
#include "core/wsc_scheduler.hpp"
#include "graph/mwis.hpp"
#include "graph/set_cover.hpp"
#include "paper_example.hpp"

namespace eas {
namespace {

using testing::example_batch_trace;
using testing::example_offline_trace;
using testing::example_placement;
using testing::example_power;

core::OfflineAssignment assignment_of(std::vector<DiskId> disks) {
  core::OfflineAssignment a;
  a.disk_of_request = std::move(disks);
  return a;
}

// ---------------------------------------------------------------- Fig 2 ---

TEST(PaperBatchExample, ScheduleAConsumes15) {
  // A: r1,r5 -> d1; r2,r3 -> d2; r4,r6 -> d3.
  const auto report =
      core::evaluate_offline(example_batch_trace(), assignment_of({0, 1, 1, 2, 0, 2}),
                             4, example_power());
  EXPECT_DOUBLE_EQ(report.total_energy(), 15.0);
}

TEST(PaperBatchExample, ScheduleBConsumes10) {
  // B: r1,r2,r3,r5 -> d1; r4,r6 -> d3.
  const auto report =
      core::evaluate_offline(example_batch_trace(), assignment_of({0, 0, 0, 2, 0, 2}),
                             4, example_power());
  EXPECT_DOUBLE_EQ(report.total_energy(), 10.0);
}

TEST(PaperBatchExample, AlwaysOnConsumes20OverTheHorizon) {
  const auto report =
      core::evaluate_offline(example_batch_trace(), assignment_of({0, 0, 0, 2, 0, 2}),
                             4, example_power());
  // Horizon = last arrival (0) + T_B (5): 4 disks * 1 W * 5 s.
  EXPECT_DOUBLE_EQ(report.always_on_energy(example_power()), 20.0);
}

TEST(PaperBatchExample, WscInstanceMatchesTheFigure) {
  // All six requests concurrent; all disks standby => every candidate disk
  // weighs E_up + E_down + T_B * P_I = 5. Minimum-weight cover is {d1, d3}
  // with weight 10 (= schedule B's energy).
  const auto trace = example_batch_trace();
  const auto placement = example_placement();

  std::vector<graph::SetSpec> sets;
  std::vector<DiskId> disks;
  for (DiskId k = 0; k < 4; ++k) {
    graph::SetSpec s;
    s.weight = example_power().max_request_energy();
    for (std::uint32_t e = 0; e < trace.size(); ++e) {
      if (placement.stores(trace[e].data, k)) s.elements.push_back(e);
    }
    sets.push_back(std::move(s));
    disks.push_back(k);
  }
  const auto instance = graph::make_set_cover(trace.size(), sets);

  const auto exact = graph::exact_set_cover(instance);
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(exact->total_weight, 10.0);
  EXPECT_EQ(exact->chosen_sets.size(), 2u);
  EXPECT_TRUE(exact->covers(instance));
  const std::set<std::size_t> chosen(exact->chosen_sets.begin(),
                                     exact->chosen_sets.end());
  EXPECT_TRUE(chosen.contains(0));  // d1
  EXPECT_TRUE(chosen.contains(2));  // d3

  // The greedy H_n-approximation happens to find the optimum here too.
  const auto greedy = graph::greedy_weighted_set_cover(instance);
  EXPECT_DOUBLE_EQ(greedy.total_weight, 10.0);
}

// ---------------------------------------------------------------- Fig 3 ---

TEST(PaperOfflineExample, ScheduleBConsumes23) {
  // Same assignment as batch-B but with staggered arrivals: the paper walks
  // through d1 = 13 J and d3 = 10 J.
  const auto report = core::evaluate_offline(
      example_offline_trace(), assignment_of({0, 0, 0, 2, 0, 2}), 4,
      example_power());
  EXPECT_DOUBLE_EQ(report.disk_stats[0].total_joules(), 13.0);
  EXPECT_DOUBLE_EQ(report.disk_stats[2].total_joules(), 10.0);
  EXPECT_DOUBLE_EQ(report.total_energy(), 23.0);
}

TEST(PaperOfflineExample, ScheduleCConsumes19) {
  // C: r1..r3 -> d1, r4 -> d3, r5,r6 -> d4. The running text derives
  // 8 + 5 + 6 = 19 J (the figure caption's "21" contradicts its own text).
  const auto report = core::evaluate_offline(
      example_offline_trace(), assignment_of({0, 0, 0, 2, 3, 3}), 4,
      example_power());
  EXPECT_DOUBLE_EQ(report.disk_stats[0].total_joules(), 8.0);
  EXPECT_DOUBLE_EQ(report.disk_stats[2].total_joules(), 5.0);
  EXPECT_DOUBLE_EQ(report.disk_stats[3].total_joules(), 6.0);
  EXPECT_DOUBLE_EQ(report.total_energy(), 19.0);
}

TEST(PaperOfflineExample, PerRequestEnergiesFollowLemma1) {
  // §3.1.1 walks through schedule C: r1 consumes 1 (idle until r2), r3
  // consumes 5 (idle until spin-down).
  const auto report = core::evaluate_offline(
      example_offline_trace(), assignment_of({0, 0, 0, 2, 3, 3}), 4,
      example_power());
  EXPECT_DOUBLE_EQ(report.request_energy[0], 1.0);  // r1: idle 0->1
  EXPECT_DOUBLE_EQ(report.request_energy[1], 2.0);  // r2: idle 1->3
  EXPECT_DOUBLE_EQ(report.request_energy[2], 5.0);  // r3: full breakeven
  EXPECT_DOUBLE_EQ(report.request_energy[3], 5.0);  // r4: last on d3
  EXPECT_DOUBLE_EQ(report.request_energy[4], 1.0);  // r5: idle 12->13
  EXPECT_DOUBLE_EQ(report.request_energy[5], 5.0);  // r6: last on d4

  // The energy-saving view: r1 saves 4 (= 5 - 1), as in the text.
  const auto p = example_power();
  EXPECT_DOUBLE_EQ(p.max_request_energy() - report.request_energy[0], 4.0);
}

// ---------------------------------------------------------------- Fig 4 ---

TEST(PaperMwisExample, ConflictGraphHasTheFigure4Nodes) {
  core::ConflictGraphOptions opts;
  opts.successor_horizon = 2;
  const auto g = core::build_conflict_graph(
      example_offline_trace(), example_placement(), example_power(), opts);

  // Expected X(i,j,k) nodes (1-based in the paper, 0-based here):
  //   X(1,2,1)=4, X(1,3,1)=2, X(2,3,1)=3, X(2,3,2)=3, X(3,4,4)=3,
  //   X(5,6,4)=4  (the figure's "X(4,6,4)" label: t6-t4 = 8 > T_B, so the
  //   pair it can mean is r5,r6 on d4).
  const std::set<std::tuple<std::uint32_t, std::uint32_t, DiskId>> expected = {
      {0, 1, 0}, {0, 2, 0}, {1, 2, 0}, {1, 2, 1}, {2, 3, 3}, {4, 5, 3}};
  ASSERT_EQ(g.size(), expected.size());
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    const core::SavingNode n = g.node(v);
    EXPECT_TRUE(expected.contains({n.i, n.j, n.k}))
        << "unexpected node X(" << n.i + 1 << "," << n.j + 1 << ","
        << n.k + 1 << ")";
    EXPECT_DOUBLE_EQ(
        n.weight, core::pairwise_energy_saving(
                      example_offline_trace()[n.i].time,
                      example_offline_trace()[n.j].time, example_power()));
  }
}

TEST(PaperMwisExample, ExactMwisSavingIs11) {
  core::ConflictGraphOptions opts;
  opts.successor_horizon = 2;
  const auto g = core::build_conflict_graph(
      example_offline_trace(), example_placement(), example_power(), opts);
  const auto sol = graph::exact_mwis(g.to_weighted_graph());
  // Total saving 11 = 6 requests * 5 J ceiling - 19 J optimal energy.
  EXPECT_DOUBLE_EQ(sol.total_weight, 11.0);
}

TEST(PaperMwisExample, ExactSchedulerReproducesScheduleC) {
  core::MwisOptions opts;
  opts.algorithm = core::MwisOptions::Algorithm::kExact;
  opts.graph.successor_horizon = 2;
  core::MwisOfflineScheduler scheduler(opts);

  const auto trace = example_offline_trace();
  const auto placement = example_placement();
  const auto assignment =
      scheduler.schedule(trace, placement, example_power());
  EXPECT_DOUBLE_EQ(scheduler.last_selected_saving(), 11.0);

  const auto report =
      core::evaluate_offline(trace, assignment, 4, example_power());
  EXPECT_DOUBLE_EQ(report.total_energy(), 19.0);
}

TEST(PaperMwisExample, GreedyGwminAlsoFindsTheOptimumHere) {
  core::MwisOptions opts;
  opts.algorithm = core::MwisOptions::Algorithm::kGwmin;
  opts.graph.successor_horizon = 2;
  core::MwisOfflineScheduler scheduler(opts);

  const auto trace = example_offline_trace();
  const auto assignment =
      scheduler.schedule(trace, example_placement(), example_power());
  const auto report =
      core::evaluate_offline(trace, assignment, 4, example_power());
  EXPECT_DOUBLE_EQ(report.total_energy(), 19.0);
}

TEST(PaperMwisExample, HorizonOneStillBeatsScheduleB) {
  // With successor_horizon = 1 the candidate set loses X(1,3,1) but keeps
  // every node of the optimal selection, so the result is unchanged.
  core::MwisOptions opts;
  opts.algorithm = core::MwisOptions::Algorithm::kExact;
  opts.graph.successor_horizon = 1;
  core::MwisOfflineScheduler scheduler(opts);

  const auto trace = example_offline_trace();
  const auto assignment =
      scheduler.schedule(trace, example_placement(), example_power());
  const auto report =
      core::evaluate_offline(trace, assignment, 4, example_power());
  EXPECT_DOUBLE_EQ(report.total_energy(), 19.0);
}

}  // namespace
}  // namespace eas
