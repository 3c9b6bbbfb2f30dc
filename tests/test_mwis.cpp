// Tests for the MWIS layer: explicit CSR graph + builder, exact
// branch-and-bound, and randomized cross-validation of exact_mwis against
// the linear-scan GWMIN/GWMIN2 specifications in reference_solvers. (The
// conflict-graph solve's differential suite lives in test_graph_diff.cpp.)
#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>

#include "graph/mwis.hpp"
#include "reference_solvers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace eas::graph {
namespace {

WeightedGraph make_graph(
    std::vector<double> weights,
    std::initializer_list<std::pair<std::size_t, std::size_t>> edges) {
  WeightedGraphBuilder b(std::move(weights));
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

WeightedGraph path_graph(std::vector<double> weights) {
  WeightedGraphBuilder b(std::move(weights));
  for (std::size_t v = 0; v + 1 < b.size(); ++v) b.add_edge(v, v + 1);
  return b.build();
}

TEST(WeightedGraph, EdgeBookkeeping) {
  const auto g = make_graph({1.0, 2.0, 3.0}, {{0, 1}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(WeightedGraph, RejectsSelfLoopsRangeAndBadWeights) {
  WeightedGraphBuilder b({1.0, 1.0});
  b.add_edge(0, 1);
  EXPECT_THROW(b.add_edge(1, 1), InvariantError);  // self-loop: O(1), always
  EXPECT_THROW(b.add_edge(0, 2), InvariantError);  // out of range: always
  EXPECT_THROW(WeightedGraphBuilder({-1.0}), InvariantError);
  EXPECT_THROW(WeightedGraph({-1.0}), InvariantError);
}

TEST(WeightedGraph, DuplicateEdgesCaughtByBuildAudit) {
  // The O(deg) per-insertion duplicate probe is gone; duplicates are now a
  // bulk audit-tier contract at build time.
  WeightedGraphBuilder b({1.0, 1.0});
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // same undirected edge, reversed spelling
  if constexpr (audit_enabled()) {
    EXPECT_THROW(b.build(), InvariantError);
  } else {
    EXPECT_NO_THROW(b.build());
  }
}

TEST(WeightedGraph, AdoptsAPrebuiltCsr) {
  // Triangle 0-1-2 handed over as raw CSR arrays (the to_weighted_graph
  // fast path).
  const WeightedGraph g({1.0, 2.0, 3.0}, {0, 2, 4, 6},
                        {1, 2, 0, 2, 0, 1});
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.is_independent({0, 1}));
}

TEST(WeightedGraph, RejectsMalformedCsrShape) {
  // Shape errors throw in every build tier.
  EXPECT_THROW(WeightedGraph({1.0, 1.0}, {0, 1}, {1}), InvariantError);
  EXPECT_THROW(WeightedGraph({1.0, 1.0}, {0, 1, 3}, {1, 0}), InvariantError);
}

TEST(WeightedGraph, AuditRejectsAsymmetricCsr) {
  if constexpr (audit_enabled()) {
    // 0 lists 1 but 1 does not list 0.
    EXPECT_THROW(WeightedGraph({1.0, 1.0}, {0, 1, 1}, {1}), InvariantError);
  } else {
    GTEST_SKIP() << "structural CSR audit is compiled out in this tier";
  }
}

TEST(WeightedGraph, IndependenceCheck) {
  const auto g = make_graph({1, 1, 1}, {{0, 1}});
  EXPECT_TRUE(g.is_independent({0, 2}));
  EXPECT_FALSE(g.is_independent({0, 1}));
  EXPECT_FALSE(g.is_independent({0, 0}));  // duplicates rejected
  EXPECT_TRUE(g.is_independent({}));
}

TEST(ExactMwis, EmptyGraphGivesEmptySolution) {
  WeightedGraph g({});
  const auto sol = exact_mwis(g);
  EXPECT_TRUE(sol.vertices.empty());
  EXPECT_DOUBLE_EQ(sol.total_weight, 0.0);
}

TEST(ExactMwis, IsolatedVerticesAllTaken) {
  WeightedGraph g({1.0, 2.0, 3.0});
  const auto sol = exact_mwis(g);
  EXPECT_DOUBLE_EQ(sol.total_weight, 6.0);
  EXPECT_EQ(sol.vertices.size(), 3u);
}

TEST(ExactMwis, PathGraphAlternation) {
  // Path 1-2-3-4-5 with unit weights: optimum takes vertices 0,2,4.
  const auto g = path_graph({1, 1, 1, 1, 1});
  const auto sol = exact_mwis(g);
  EXPECT_DOUBLE_EQ(sol.total_weight, 3.0);
  EXPECT_TRUE(g.is_independent(sol.vertices));
}

TEST(ExactMwis, WeightBeatsCardinality) {
  // Star: heavy centre vs three light leaves.
  const auto g = make_graph({10.0, 1.0, 1.0, 1.0}, {{0, 1}, {0, 2}, {0, 3}});
  const auto sol = exact_mwis(g);
  EXPECT_DOUBLE_EQ(sol.total_weight, 10.0);
  EXPECT_EQ(sol.vertices, (std::vector<std::size_t>{0}));
}

TEST(ExactMwis, RefusesOversizedGraphs) {
  WeightedGraph g(std::vector<double>(100, 1.0));
  EXPECT_THROW(exact_mwis(g, 48), InvariantError);
}

class RandomMwisTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomMwisTest, GreediesAreIndependentBoundedAndBelowExact) {
  util::Rng rng(GetParam());
  const std::size_t n = 14;
  std::vector<double> weights;
  for (std::size_t v = 0; v < n; ++v) weights.push_back(rng.uniform(0.5, 10.0));
  WeightedGraphBuilder b(std::move(weights));
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (rng.bernoulli(0.3)) b.add_edge(u, v);
    }
  }
  const auto g = b.build();

  const auto exact = exact_mwis(g);
  EXPECT_TRUE(g.is_independent(exact.vertices));

  // The greedy specifications are feasible comparands: every independent
  // set weighs at most the optimum.
  for (const auto& sol : {gwmin_reference(g), gwmin2_reference(g)}) {
    EXPECT_TRUE(g.is_independent(sol.vertices));
    EXPECT_LE(sol.total_weight, exact.total_weight + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMwisTest,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(ExactMwis, MatchesBruteForceOnTinyGraphs) {
  // Exhaustive 2^n verification for n = 10 over a few seeds.
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    util::Rng rng(seed);
    const std::size_t n = 10;
    std::vector<double> weights;
    for (std::size_t v = 0; v < n; ++v) weights.push_back(rng.uniform(0, 5));
    WeightedGraphBuilder b(std::move(weights));
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        if (rng.bernoulli(0.4)) b.add_edge(u, v);
      }
    }
    const auto g = b.build();
    double best = 0.0;
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      std::vector<std::size_t> verts;
      for (std::size_t v = 0; v < n; ++v) {
        if (mask & (1u << v)) verts.push_back(v);
      }
      if (g.is_independent(verts)) {
        best = std::max(best, g.total_weight(verts));
      }
    }
    EXPECT_NEAR(exact_mwis(g).total_weight, best, 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace eas::graph
