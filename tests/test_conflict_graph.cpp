// Tests for conflict-graph construction and the scalable GWMIN solver,
// cross-validated against exact_mwis on the explicit graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/conflict_graph.hpp"
#include "core/energy_model.hpp"
#include "graph/mwis.hpp"
#include "paper_example.hpp"
#include "placement/placement.hpp"
#include "trace/synthetic.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace eas::core {
namespace {

using testing::example_offline_trace;
using testing::example_placement;
using testing::example_power;

std::vector<std::uint32_t> neighbors(const ConflictGraph& g,
                                     std::uint32_t v) {
  std::vector<std::uint32_t> row;
  g.for_each_neighbor(v, [&](std::uint32_t u) { row.push_back(u); });
  return row;
}

/// The in-place solve run on a copy of `g`, so `g` keeps its degrees.
std::vector<std::uint32_t> solve_copy(const ConflictGraph& g,
                                      bool use_gwmin2) {
  ConflictGraph copy = g;
  GwminWorkspace ws;
  std::vector<std::uint32_t> selected;
  solve_gwmin_in_place(copy, use_gwmin2, ws, selected);
  return selected;
}

ConflictGraph paper_graph(std::size_t horizon = 2) {
  ConflictGraphOptions opts;
  opts.successor_horizon = horizon;
  return build_conflict_graph(example_offline_trace(), example_placement(),
                              example_power(), opts);
}

TEST(ConflictGraph, AdjacencyIsSymmetricAndLoopFree) {
  const auto g = paper_graph();
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    for (std::uint32_t u : neighbors(g, v)) {
      EXPECT_NE(u, v);
      const auto back = neighbors(g, u);
      EXPECT_NE(std::find(back.begin(), back.end(), v), back.end());
    }
  }
}

TEST(ConflictGraph, NoDuplicateNeighbors) {
  const auto g = paper_graph();
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    const auto nbrs = neighbors(g, v);
    const std::set<std::uint32_t> unique(nbrs.begin(), nbrs.end());
    EXPECT_EQ(unique.size(), nbrs.size());
    EXPECT_EQ(nbrs.size(), g.degree(v));
  }
}

TEST(ConflictGraph, EdgesMatchTheTwoConstraints) {
  const auto g = paper_graph();
  // Brute-force ground truth: edge iff (share a request) and (same first
  // request or different disk).
  auto conflicts = [](const SavingNode& a, const SavingNode& b) {
    const bool share = a.i == b.i || a.i == b.j || a.j == b.i || a.j == b.j;
    if (!share) return false;
    return a.i == b.i || a.k != b.k;
  };
  for (std::uint32_t u = 0; u < g.size(); ++u) {
    for (std::uint32_t v = u + 1; v < g.size(); ++v) {
      const auto nbrs = neighbors(g, u);
      const bool has =
          std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end();
      EXPECT_EQ(has, conflicts(g.node(u), g.node(v)))
          << "nodes " << u << "," << v;
    }
  }
}

TEST(ConflictGraph, HorizonOneKeepsOnlyAdjacentPairs) {
  const auto g = paper_graph(1);
  // X(1,3,1) is the only non-adjacent pair in the paper instance.
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    const SavingNode n = g.node(v);
    EXPECT_FALSE(n.i == 0 && n.j == 2 && n.k == 0);
  }
  EXPECT_EQ(g.size(), 5u);
}

TEST(ConflictGraph, NodesRespectTheSavingWindow) {
  const auto g = paper_graph(5);
  const auto trace = example_offline_trace();
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    const SavingNode n = g.node(v);
    EXPECT_LT(trace[n.j].time - trace[n.i].time,
              example_power().saving_window_seconds());
    EXPECT_GT(n.weight, 0.0);
    EXPECT_TRUE(example_placement().stores(trace[n.i].data, n.k));
    EXPECT_TRUE(example_placement().stores(trace[n.j].data, n.k));
  }
}

TEST(ConflictGraph, SelectionWeightVerifiesIndependence) {
  const auto g = paper_graph();
  // Find two adjacent nodes and try to "select" both.
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    if (g.degree(v) > 0) {
      const std::uint32_t u = neighbors(g, v)[0];
      EXPECT_THROW(g.selection_weight({v, u}), InvariantError);
      return;
    }
  }
  FAIL() << "paper graph should contain at least one edge";
}

TEST(ConflictGraph, ToWeightedGraphRoundTrips) {
  const auto g = paper_graph();
  const auto wg = g.to_weighted_graph();
  EXPECT_EQ(wg.size(), g.size());
  EXPECT_EQ(wg.num_edges(), g.num_edges());
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    EXPECT_DOUBLE_EQ(wg.weight(v), g.weight[v]);
    EXPECT_EQ(wg.degree(v), g.degree(v));
    const auto row = wg.neighbors(v);
    EXPECT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()),
              neighbors(g, v));
  }
}

TEST(SolveGwmin, MatchesExplicitReferenceOnThePaperInstance) {
  const auto g = paper_graph();
  const auto fast = solve_copy(g, false);
  EXPECT_NO_THROW(g.selection_weight(fast));
  // Both implementations satisfy the same GWMIN lower bound.
  double bound = 0.0;
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    bound += g.weight[v] / static_cast<double>(g.degree(v) + 1);
  }
  EXPECT_GE(g.selection_weight(fast), bound - 1e-9);
}

TEST(SolveGwmin, ConsumedDegreesAreRejectedNamingTheEarlierSolve) {
  // The in-place solve releases `degrees`; both of its readers must refuse
  // the solved graph rather than index the empty array.
  auto g = paper_graph();
  ASSERT_GT(g.num_edges(), 0u);
  GwminWorkspace ws;
  std::vector<std::uint32_t> selected;
  solve_gwmin_in_place(g, false, ws, selected);
  ASSERT_TRUE(g.degrees.empty());
  auto expect_consumed = [](auto&& call, const char* what) {
    try {
      call();
      ADD_FAILURE() << what << " did not throw";
    } catch (const InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "consumed by an earlier solve_gwmin_in_place"),
                std::string::npos)
          << what << ": " << e.what();
    }
  };
  expect_consumed([&] { solve_gwmin_in_place(g, true, ws, selected); },
                  "second solve");
  expect_consumed([&] { (void)g.to_weighted_graph(); }, "to_weighted_graph");
}

class RandomConflictGraphTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomConflictGraphTest, GwminIsIndependentMaximalAndBounded) {
  util::Rng rng(GetParam());
  // Random small instance: 40 requests, 6 disks, rf 2.
  placement::ZipfPlacementConfig pcfg;
  pcfg.num_disks = 6;
  pcfg.num_data = 20;
  pcfg.replication_factor = 2;
  pcfg.seed = GetParam();
  const auto placement = placement::make_zipf_placement(pcfg);

  std::vector<trace::TraceRecord> recs;
  double t = 0.0;
  for (int i = 0; i < 40; ++i) {
    t += rng.exponential(0.5);
    recs.push_back({t, static_cast<DataId>(rng.next_below(20)), 4096, true});
  }
  const trace::Trace trace(std::move(recs));

  ConflictGraphOptions opts;
  opts.successor_horizon = 3;
  const auto g =
      build_conflict_graph(trace, placement, example_power(), opts);

  for (const bool gw2 : {false, true}) {
    const auto sel = solve_copy(g, gw2);
    const double w = g.selection_weight(sel);  // checks independence

    // Sakai et al.'s guarantee: GWMIN >= sum_v w(v) / (d(v)+1).
    if (!gw2) {
      double bound = 0.0;
      for (std::uint32_t v = 0; v < g.size(); ++v) {
        bound += g.weight[v] / static_cast<double>(g.degree(v) + 1);
      }
      EXPECT_GE(w, bound - 1e-9);
    }

    // Maximality: no alive vertex could be added.
    std::vector<bool> in(g.size(), false);
    for (auto v : sel) in[v] = true;
    for (std::uint32_t v = 0; v < g.size(); ++v) {
      if (in[v]) continue;
      bool blocked = false;
      g.for_each_neighbor(v, [&](std::uint32_t u) {
        if (in[u]) blocked = true;
      });
      EXPECT_TRUE(blocked) << "vertex " << v << " could be added";
    }

    // Never better than the exact optimum (checked on small graphs only).
    if (g.size() <= 40) {
      const auto exact = graph::exact_mwis(g.to_weighted_graph(), 40);
      EXPECT_LE(w, exact.total_weight + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConflictGraphTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace eas::core
