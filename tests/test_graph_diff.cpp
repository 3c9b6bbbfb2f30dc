// Differential suite for the heap-driven solvers and the implicit conflict
// graph.
//
// The indexed-heap GWMIN/GWMIN2 and the exact-count set cover scan each
// promise to reproduce their retained linear-scan reference *exactly* —
// same vertex sets, same selection-order weight accumulation, bit for bit
// — because the scheduling pipeline's determinism gates (sweep
// fingerprints, emitter goldens) pin the historical outputs. This binary
// proves the promise on ~200 seeded random graphs plus adversarial-tie
// families (quantised and unit weights make equal scores common,
// exercising the index tie-break), batch-shaped set-cover instances, a
// 10k-node smoke (which the ASan preset re-runs), and replays
// core::solve_gwmin against an in-test linear-scan replica of its
// historical higher-index tie-break semantics.
//
// core::ConflictGraph derives its neighbour rows from per-request incidence
// lists; the rows are checked, entry for entry and in order, against the
// explicit bucket-built CSR the graph used to store
// (build_conflict_csr_reference), and the replica solves over that CSR.
// Its node columns (first, second, disk_of, weight) are checked against an
// independent enumeration (enumerate_saving_nodes_reference), including
// placements whose empty disks own empty id ranges. Every node's
// closed-form build degree is checked against a count of its walk, and
// both solves, which compact incidence rows as nodes die, must leave the
// graph exactly as built.
//
// It also links the counting operator new shim (alloc_counter.cpp) to pin
// the zero-allocation contract of warm-workspace solves, the single
// allocation of a warm batch-scheduler tick, the memory bound
// of a conflict-graph build and the peak live bytes of an offline
// schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "core/conflict_graph.hpp"
#include "core/mwis_scheduler.hpp"
#include "core/wsc_scheduler.hpp"
#include "disk/params.hpp"
#include "graph/mwis.hpp"
#include "graph/set_cover.hpp"
#include "placement/placement.hpp"
#include "reference_solvers.hpp"
#include "trace/synthetic.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace eas {
namespace {

using testing::allocations_during;
using testing::bytes_during;
using testing::live_bytes;
using testing::peak_live_bytes;
using testing::reset_peak_live_bytes;

enum class WeightMode {
  kContinuous,  // uniform doubles: ties essentially impossible
  kQuantised,   // weights from {1, 2, 4}: score ties common
  kUnit,        // all 1.0: maximally tie-heavy
};

graph::WeightedGraph random_graph(std::size_t n, double density,
                                  WeightMode mode, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> weights;
  for (std::size_t v = 0; v < n; ++v) {
    switch (mode) {
      case WeightMode::kContinuous:
        weights.push_back(rng.uniform(0.1, 10.0));
        break;
      case WeightMode::kQuantised:
        weights.push_back(
            static_cast<double>(1 << rng.uniform_int(0, 2)));
        break;
      case WeightMode::kUnit:
        weights.push_back(1.0);
        break;
    }
  }
  graph::WeightedGraphBuilder b(std::move(weights));
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (rng.bernoulli(density)) b.add_edge(u, v);
    }
  }
  return b.build();
}

void expect_identical(const graph::MwisSolution& heap,
                      const graph::MwisSolution& ref, const char* what,
                      std::uint64_t seed) {
  EXPECT_EQ(heap.vertices, ref.vertices) << what << " seed " << seed;
  // Both accumulate in selection order, so even the weight is bit-equal.
  EXPECT_EQ(heap.total_weight, ref.total_weight) << what << " seed " << seed;
}

// --- explicit-graph GWMIN/GWMIN2 vs reference scan --------------------------

class GwminDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GwminDiffTest, HeapMatchesReferenceScanExactly) {
  const std::uint64_t seed = GetParam();
  // Two graphs per seed (continuous + tie-heavy quantised weights) times
  // 100 seeds = the 200-graph differential sweep; size and density vary
  // with the seed so the family covers sparse chains through near-cliques.
  const std::size_t n = 4 + static_cast<std::size_t>(seed % 61);
  const double density =
      0.02 + 0.96 * static_cast<double>(seed % 17) / 16.0;
  for (WeightMode mode : {WeightMode::kContinuous, WeightMode::kQuantised}) {
    const auto g = random_graph(n, density, mode, seed);
    expect_identical(graph::gwmin(g), graph::gwmin_reference(g), "gwmin",
                     seed);
    expect_identical(graph::gwmin2(g), graph::gwmin2_reference(g), "gwmin2",
                     seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GwminDiffTest,
                         ::testing::Range<std::uint64_t>(1, 101));

TEST(GwminDiff, AdversarialTieFamilies) {
  // Unit weights on regular-ish structures: every round is a tie, so any
  // deviation from the lowest-index rule changes the answer immediately.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto g = random_graph(32, 0.2, WeightMode::kUnit, seed);
    expect_identical(graph::gwmin(g), graph::gwmin_reference(g),
                     "gwmin/unit", seed);
    expect_identical(graph::gwmin2(g), graph::gwmin2_reference(g),
                     "gwmin2/unit", seed);
  }
  // Structured shapes: path, cycle, star, clique, isolated + zero weights.
  {
    graph::WeightedGraphBuilder b(std::vector<double>(24, 1.0));
    for (std::size_t v = 0; v + 1 < 24; ++v) b.add_edge(v, v + 1);
    const auto g = b.build();
    expect_identical(graph::gwmin(g), graph::gwmin_reference(g), "path", 0);
    expect_identical(graph::gwmin2(g), graph::gwmin2_reference(g), "path", 0);
  }
  {
    graph::WeightedGraphBuilder b(std::vector<double>(16, 2.0));
    for (std::size_t v = 0; v < 16; ++v) b.add_edge(v, (v + 1) % 16);
    const auto g = b.build();
    expect_identical(graph::gwmin(g), graph::gwmin_reference(g), "cycle", 0);
    expect_identical(graph::gwmin2(g), graph::gwmin2_reference(g), "cycle",
                     0);
  }
  {
    // Star plus isolated zero-weight vertices (gwmin2's denom==0 branch).
    graph::WeightedGraphBuilder b({1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0});
    for (std::size_t leaf = 1; leaf < 5; ++leaf) b.add_edge(0, leaf);
    const auto g = b.build();
    expect_identical(graph::gwmin(g), graph::gwmin_reference(g), "star", 0);
    expect_identical(graph::gwmin2(g), graph::gwmin2_reference(g), "star",
                     0);
  }
  {
    graph::WeightedGraphBuilder b(std::vector<double>(12, 3.0));
    for (std::size_t u = 0; u < 12; ++u) {
      for (std::size_t v = u + 1; v < 12; ++v) b.add_edge(u, v);
    }
    const auto g = b.build();
    expect_identical(graph::gwmin(g), graph::gwmin_reference(g), "clique",
                     0);
    expect_identical(graph::gwmin2(g), graph::gwmin2_reference(g), "clique",
                     0);
  }
  {
    const graph::WeightedGraph g(std::vector<double>(9, 1.0));  // edge-less
    expect_identical(graph::gwmin(g), graph::gwmin_reference(g), "isolated",
                     0);
    expect_identical(graph::gwmin2(g), graph::gwmin2_reference(g),
                     "isolated", 0);
  }
}

TEST(GwminDiff, WorkspaceReuseAcrossDifferentGraphsIsClean) {
  // A workspace warmed on a large graph must not leak stale heap positions,
  // degrees, or epoch marks into a later, smaller solve.
  graph::MwisWorkspace ws;
  graph::MwisSolution out;
  const auto big = random_graph(60, 0.3, WeightMode::kQuantised, 7);
  const auto small = random_graph(9, 0.5, WeightMode::kUnit, 8);
  for (int round = 0; round < 3; ++round) {
    graph::gwmin(big, ws, out);
    expect_identical(out, graph::gwmin_reference(big), "reuse/big", 7);
    graph::gwmin(small, ws, out);
    expect_identical(out, graph::gwmin_reference(small), "reuse/small", 8);
    graph::gwmin2(big, ws, out);
    expect_identical(out, graph::gwmin2_reference(big), "reuse2/big", 7);
    graph::gwmin2(small, ws, out);
    expect_identical(out, graph::gwmin2_reference(small), "reuse2/small", 8);
  }
}

TEST(GwminDiff, TenThousandNodeSmoke) {
  // Scale smoke (re-run under ASan by the sanitize preset): solve a 10k
  // vertex graph with both heap greedies and check the solutions satisfy
  // the independence contract and the GWMIN weight guarantee.
  const std::size_t n = 10000;
  util::Rng rng(42);
  std::vector<double> weights;
  for (std::size_t v = 0; v < n; ++v) weights.push_back(rng.uniform(0.5, 10));
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t e = 0; e < 4 * n; ++e) {
    auto u = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto v = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    edges.emplace_back(u, v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  graph::WeightedGraphBuilder b(std::move(weights));
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  const auto g = b.build();
  double bound = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    bound += g.weight(v) / static_cast<double>(g.degree(v) + 1);
  }
  const auto sol = graph::gwmin(g);
  EXPECT_TRUE(g.is_independent(sol.vertices));
  EXPECT_GE(sol.total_weight, bound - 1e-9);
  const auto sol2 = graph::gwmin2(g);
  EXPECT_TRUE(g.is_independent(sol2.vertices));
  EXPECT_NO_THROW(graph::check_independent(g, sol2.vertices));
}

// --- conflict-graph solve_gwmin vs linear-scan replica ----------------------

/// In-test replica of core::solve_gwmin's *historical* semantics over an
/// explicit conflict CSR: a full linear argmax per round over (score, node
/// id) with the HIGHER id winning ties (the order a lazy max-heap of
/// std::pair<double, uint32_t> pops), degrees decremented per kill, and —
/// critically — GWMIN2 neighbourhood weights maintained by incremental
/// subtraction in doomed-major row-minor order, so floating-point rounding
/// matches the production solver bit for bit.
std::vector<std::uint32_t> solve_gwmin_replica(const graph::WeightedGraph& g,
                                               bool use_gwmin2) {
  const std::size_t n = g.size();
  std::vector<char> alive(n, 1);
  std::vector<std::uint32_t> degree(n);
  std::vector<double> nbr_weight(n, 0.0);
  for (std::uint32_t v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.degree(v));
    if (use_gwmin2) {
      for (std::uint32_t u : g.neighbors(v)) nbr_weight[v] += g.weight(u);
    }
  }
  auto score = [&](std::uint32_t v) {
    if (use_gwmin2) {
      const double denom = g.weight(v) + nbr_weight[v];
      return denom == 0.0 ? 1.0 : g.weight(v) / denom;
    }
    return g.weight(v) / static_cast<double>(degree[v] + 1);
  };

  std::vector<std::uint32_t> selected;
  std::size_t remaining = n;
  while (remaining > 0) {
    bool found = false;
    double best_score = 0.0;
    std::uint32_t best = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      const double s = score(v);
      // >= keeps the later (higher) index on exact ties.
      if (!found || s >= best_score) {
        found = true;
        best_score = s;
        best = v;
      }
    }
    selected.push_back(best);
    std::vector<std::uint32_t> doomed{best};
    alive[best] = 0;
    --remaining;
    for (std::uint32_t u : g.neighbors(best)) {
      if (alive[u]) {
        alive[u] = 0;
        --remaining;
        doomed.push_back(u);
      }
    }
    for (std::uint32_t u : doomed) {
      for (std::uint32_t w : g.neighbors(u)) {
        if (!alive[w]) continue;
        --degree[w];
        if (use_gwmin2) nbr_weight[w] -= g.weight(u);
      }
    }
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

/// A seeded synthetic trace on a 24-disk rf-3 Zipf placement.
struct SyntheticInstance {
  trace::Trace trace;
  placement::PlacementMap placement;
};

SyntheticInstance synthetic_instance(std::size_t requests,
                                     std::uint64_t seed) {
  trace::SyntheticTraceConfig tc;
  tc.num_requests = requests;
  tc.num_data = static_cast<DataId>(requests / 2);
  tc.mean_rate = 30.0;
  tc.seed = seed;
  placement::ZipfPlacementConfig pc;
  pc.num_disks = 24;
  pc.num_data = static_cast<DataId>(requests / 2);
  pc.replication_factor = 3;
  pc.seed = seed + 1;
  return {trace::make_synthetic_trace(tc), placement::make_zipf_placement(pc)};
}

core::ConflictGraph synthetic_conflict_graph(std::size_t requests,
                                             std::uint64_t seed) {
  const auto in = synthetic_instance(requests, seed);
  return core::build_conflict_graph(in.trace, in.placement,
                                    disk::DiskPowerParams{}, {});
}

TEST(SolveGwminDiff, MatchesLinearScanReplicaOnSyntheticBatches) {
  for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    const auto in = synthetic_instance(600, seed);
    const auto g = core::build_conflict_graph(in.trace, in.placement,
                                              disk::DiskPowerParams{}, {});
    ASSERT_GT(g.size(), 0u) << "seed " << seed;
    // Node v is the v-th node of an independent enumeration.
    const auto nodes =
        core::enumerate_saving_nodes_reference(in.trace, in.placement, {}, {});
    ASSERT_EQ(g.size(), nodes.size()) << "seed " << seed;
    for (std::uint32_t v = 0; v < g.size(); ++v) {
      const core::SavingNode n = g.node(v);
      EXPECT_EQ(n.i, nodes[v].i) << "seed " << seed << " node " << v;
      EXPECT_EQ(n.j, nodes[v].j) << "seed " << seed << " node " << v;
      EXPECT_EQ(n.k, nodes[v].k) << "seed " << seed << " node " << v;
      EXPECT_EQ(n.weight, nodes[v].weight) << "seed " << seed << " node " << v;
    }
    const auto ref = core::build_conflict_csr_reference(nodes, in.trace.size());
    for (bool gw2 : {false, true}) {
      const auto fast = core::solve_gwmin(g, gw2);
      EXPECT_EQ(fast, solve_gwmin_replica(ref, gw2))
          << "seed " << seed << " gwmin2=" << gw2;
    }
  }
}

// --- implicit conflict rows vs the explicit bucket-built CSR ----------------

/// A small random instance for the row differential: horizon 1–6 and rf
/// 1–4 cycle with the seed (every combination every 24 seeds). Few data
/// items on few disks, with arrivals dense against the saving window, make
/// most co-located pairs candidates and put many (i, j) pairs on several
/// disks at once.
struct RowInstance {
  trace::Trace trace;
  placement::PlacementMap placement;
  core::ConflictGraphOptions options;
};

/// `n` reads of uniformly drawn data items, arriving six per saving
/// window on average.
trace::Trace dense_trace(util::Rng& rng, DataId num_data, int n) {
  const double rate = 6.0 / disk::DiskPowerParams{}.saving_window_seconds();
  std::vector<trace::TraceRecord> recs;
  double t = 0.0;
  for (int r = 0; r < n; ++r) {
    t += rng.exponential(rate);
    recs.push_back({t, static_cast<DataId>(rng.next_below(num_data)), 4096,
                    true});
  }
  return trace::Trace(std::move(recs));
}

RowInstance row_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto rf = static_cast<unsigned>(1 + (seed / 6) % 4);
  placement::ZipfPlacementConfig pc;
  pc.num_disks = static_cast<DiskId>(rf + seed % 5);
  pc.num_data = static_cast<DataId>(3 + seed % 11);
  pc.replication_factor = rf;
  pc.seed = seed;
  trace::Trace trace = dense_trace(rng, pc.num_data,
                                   30 + static_cast<int>(seed % 70));
  core::ConflictGraphOptions opts;
  opts.successor_horizon = 1 + seed % 6;
  return {std::move(trace), placement::make_zipf_placement(pc), opts};
}

/// Number of nodes whose (i, j) also appears on another disk.
std::size_t multi_disk_nodes(const core::ConflictGraph& g) {
  std::size_t count = 0;
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    for (std::uint32_t u = 0; u < g.size(); ++u) {
      if (u != v && g.first[u] == g.first[v] && g.second[u] == g.second[v]) {
        ++count;
        break;
      }
    }
  }
  return count;
}

/// Checks the graph built from `in` against the reference enumeration and
/// the bucket-built CSR: every node's columns and disk, every neighbour
/// walk entry for entry, degrees, the materialised CSR, and both solves.
void expect_graph_matches_reference(const RowInstance& in,
                                    const std::string& label) {
  const auto g = core::build_conflict_graph(in.trace, in.placement, {},
                                            in.options);
  const auto nodes = core::enumerate_saving_nodes_reference(
      in.trace, in.placement, {}, in.options);
  ASSERT_EQ(g.size(), nodes.size()) << label;
  ASSERT_EQ(g.disk_begin.size(), in.placement.num_disks() + 1u) << label;
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    EXPECT_EQ(g.first[v], nodes[v].i) << label << " node " << v;
    EXPECT_EQ(g.second[v], nodes[v].j) << label << " node " << v;
    EXPECT_EQ(g.disk_of(v), nodes[v].k) << label << " node " << v;
    EXPECT_EQ(g.weight[v], nodes[v].weight) << label << " node " << v;
  }
  const auto ref = core::build_conflict_csr_reference(nodes, in.trace.size());
  EXPECT_EQ(g.num_edges(), ref.num_edges()) << label;
  const auto wg = g.to_weighted_graph();
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    std::vector<std::uint32_t> row;
    g.for_each_neighbor(v, [&](std::uint32_t u) { row.push_back(u); });
    const auto want = ref.neighbors(v);
    EXPECT_TRUE(std::equal(row.begin(), row.end(), want.begin(), want.end()))
        << label << " node " << v;
    EXPECT_EQ(g.degree(v), ref.degree(v)) << label << " node " << v;
    const auto mat = wg.neighbors(v);
    EXPECT_TRUE(std::equal(mat.begin(), mat.end(), want.begin(), want.end()))
        << label << " node " << v;
  }
  for (bool gw2 : {false, true}) {
    EXPECT_EQ(core::solve_gwmin(g, gw2), solve_gwmin_replica(ref, gw2))
        << label << " gwmin2=" << gw2;
  }
}

class ImplicitRowsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImplicitRowsTest, NeighbourRowsMatchTheExplicitCsrInOrder) {
  const std::uint64_t seed = GetParam();
  expect_graph_matches_reference(row_instance(seed),
                                 "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplicitRowsTest,
                         ::testing::Range<std::uint64_t>(1, 73));

TEST(ImplicitRows, InstancesPutPairsOnSeveralDisks) {
  // The one row-j skip that is not a compatibility test (same (i, j) on
  // another disk) only fires when a pair is co-located on several disks;
  // every rf >= 2 setting of the family must exercise it.
  for (unsigned rf = 2; rf <= 4; ++rf) {
    std::size_t covered = 0;
    for (std::uint64_t seed = 1; seed < 73; ++seed) {
      if (1 + (seed / 6) % 4 != rf) continue;
      const auto in = row_instance(seed);
      covered += multi_disk_nodes(core::build_conflict_graph(
          in.trace, in.placement, {}, in.options));
    }
    EXPECT_GT(covered, 0u) << "rf " << rf;
  }
}

/// An instance whose data live only on `used` of `num_disks` disks, each
/// item on `rf` distinct used disks: the other disks own no node, so their
/// id ranges are empty.
RowInstance sparse_disk_instance(std::uint64_t seed, DiskId num_disks,
                                 const std::vector<DiskId>& used, unsigned rf,
                                 std::size_t horizon) {
  util::Rng rng(seed);
  const auto num_data = static_cast<DataId>(4 + seed % 7);
  std::vector<std::vector<DiskId>> locations(num_data);
  for (auto& loc : locations) {
    while (loc.size() < rf) {
      const DiskId k = used[rng.next_below(used.size())];
      if (std::find(loc.begin(), loc.end(), k) == loc.end()) loc.push_back(k);
    }
  }
  core::ConflictGraphOptions opts;
  opts.successor_horizon = horizon;
  return {dense_trace(rng, num_data, 40 + static_cast<int>(seed % 40)),
          placement::PlacementMap(num_disks, std::move(locations)), opts};
}

TEST(ImplicitRows, EmptyDiskRangesSingleDiskAndRfOneMatchTheReference) {
  // The same-disk range test u - lo < span at every boundary: empty ranges
  // at the first, a middle and the last disk, a lone used disk among empty
  // ones, a one-disk placement (one range covers every node), and rf = 1
  // (no pair on two disks, so only the range test filters).
  struct Shape {
    DiskId num_disks;
    std::vector<DiskId> used;
    unsigned rf;
  };
  const std::vector<Shape> shapes = {
      {7, {1, 2, 4, 5}, 2}, {7, {1, 2, 4, 5}, 1}, {5, {2}, 1},
      {1, {0}, 1},          {4, {0, 1, 2, 3}, 1}, {6, {0, 5}, 2},
  };
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const Shape& shape = shapes[s];
      const auto in = sparse_disk_instance(seed, shape.num_disks, shape.used,
                                           shape.rf, 1 + seed % 4);
      const auto g = core::build_conflict_graph(in.trace, in.placement, {},
                                                in.options);
      ASSERT_GT(g.size(), 0u) << "shape " << s << " seed " << seed;
      for (DiskId k = 0; k < shape.num_disks; ++k) {
        if (std::find(shape.used.begin(), shape.used.end(), k) ==
            shape.used.end()) {
          EXPECT_EQ(g.disk_begin[k], g.disk_begin[k + 1])
              << "shape " << s << " seed " << seed << " disk " << k;
        }
      }
      expect_graph_matches_reference(
          in, "shape " + std::to_string(s) + " seed " + std::to_string(seed));
    }
  }
}

// --- closed-form degrees vs the neighbour walk ------------------------------

/// Checks every node's build-time degree (the closed form over per-row role
/// counts) against a count of its for_each_neighbor walk, and the edge
/// count against half the walked degree sum.
void expect_degrees_match_walk(const RowInstance& in,
                               const std::string& label) {
  const auto g = core::build_conflict_graph(in.trace, in.placement, {},
                                            in.options);
  ASSERT_GT(g.size(), 0u) << label;
  std::size_t degree_sum = 0;
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    std::size_t walked = 0;
    g.for_each_neighbor(v, [&walked](std::uint32_t) { ++walked; });
    EXPECT_EQ(g.degree(v), walked) << label << " node " << v;
    degree_sum += walked;
  }
  EXPECT_EQ(g.num_edges(), degree_sum / 2) << label;
}

/// `n` reads of uniformly drawn data items whose arrival times are
/// quantised to a tenth of the saving window, so runs of requests share a
/// timestamp.
trace::Trace tied_trace(util::Rng& rng, DataId num_data, int n) {
  const double window = disk::DiskPowerParams{}.saving_window_seconds();
  const double quantum = window / 10;
  std::vector<trace::TraceRecord> recs;
  double t = 0.0;
  for (int r = 0; r < n; ++r) {
    t += rng.exponential(6.0 / window);
    recs.push_back({quantum * std::floor(t / quantum),
                    static_cast<DataId>(rng.next_below(num_data)), 4096,
                    true});
  }
  return trace::Trace(std::move(recs));
}

TEST(ClosedFormDegrees, MatchTheNeighbourWalkOnEveryNode) {
  // The 72 row-differential instances (horizon 1–6, rf 1–4).
  for (std::uint64_t seed = 1; seed < 73; ++seed) {
    expect_degrees_match_walk(row_instance(seed),
                              "row seed " + std::to_string(seed));
  }
  for (std::size_t horizon : {1u, 6u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const std::string tag =
          " h " + std::to_string(horizon) + " seed " + std::to_string(seed);
      // Every item on all of 2–5 disks: every (i, j) is a node on each of
      // them, so the pair term is rf - 1 for every in-member.
      for (unsigned rf = 2; rf <= 5; ++rf) {
        std::vector<DiskId> used;
        for (DiskId k = 0; k < rf; ++k) used.push_back(k);
        expect_degrees_match_walk(
            sparse_disk_instance(seed, static_cast<DiskId>(rf + 1), used, rf,
                                 horizon),
            "all-replicas rf " + std::to_string(rf) + tag);
      }
      // rf = 1 and empty disk ranges at the first, a middle and the last
      // disk.
      expect_degrees_match_walk(
          sparse_disk_instance(seed, 7, {1, 2, 4, 5}, 1, horizon),
          "rf 1 sparse" + tag);
      expect_degrees_match_walk(
          sparse_disk_instance(seed, 7, {1, 2, 4, 5}, 2, horizon),
          "rf 2 sparse" + tag);
      // Timestamp ties, on a placement that puts pairs on several disks.
      RowInstance tied = sparse_disk_instance(seed, 5, {0, 1, 2, 3}, 3,
                                              horizon);
      util::Rng rng(seed);
      tied.trace = tied_trace(rng, tied.placement.num_data(),
                              60 + static_cast<int>(seed * 7));
      expect_degrees_match_walk(tied, "ties" + tag);
    }
  }
}

// --- solves leave the graph as built ----------------------------------------

/// Checks that the fields a solve may touch equal those of `built`, a copy
/// of `g` taken before the solve.
void expect_as_built(const core::ConflictGraph& g,
                     const core::ConflictGraph& built,
                     const std::string& label) {
  EXPECT_EQ(g.first, built.first) << label;
  EXPECT_EQ(g.second, built.second) << label;
  EXPECT_EQ(g.weight, built.weight) << label;
  EXPECT_EQ(g.inc_offsets, built.inc_offsets) << label;
  EXPECT_EQ(g.inc_nodes, built.inc_nodes) << label;
}

TEST(SolveGwminDiff, SolvesLeaveTheGraphAsBuilt) {
  // The select loop compacts incidence rows as nodes die: the const solves
  // compact a workspace copy, the in-place solve the graph's own rows,
  // which it must restore before returning.
  std::vector<std::pair<std::string, RowInstance>> instances;
  for (std::uint64_t seed : {3u, 29u, 47u, 70u}) {
    instances.emplace_back("row seed " + std::to_string(seed),
                           row_instance(seed));
  }
  for (std::uint64_t seed : {11u, 12u}) {
    auto in = synthetic_instance(600, seed);
    instances.emplace_back(
        "synthetic seed " + std::to_string(seed),
        RowInstance{std::move(in.trace), std::move(in.placement), {}});
  }
  core::GwminWorkspace ws;
  for (const auto& [label, in] : instances) {
    for (bool gw2 : {false, true}) {
      const std::string tag = label + " gwmin2=" + std::to_string(gw2);
      auto g = core::build_conflict_graph(in.trace, in.placement, {},
                                          in.options);
      ASSERT_GT(g.size(), 0u) << tag;
      const core::ConflictGraph built = g;
      const auto copied = core::solve_gwmin(g, gw2, ws);
      expect_as_built(g, built, tag + " const solve");
      EXPECT_EQ(g.degrees, built.degrees) << tag;
      std::vector<std::uint32_t> in_place;
      core::solve_gwmin_in_place(g, gw2, ws, in_place);
      expect_as_built(g, built, tag + " in-place solve");
      EXPECT_EQ(in_place, copied) << tag;
    }
  }
}

// --- set cover: exact-count scan vs reference recount ----------------------

graph::SetCoverInstance random_cover(std::size_t elements, std::size_t sets,
                                     double density, bool tie_heavy,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  graph::SetCoverInstance inst;
  inst.num_elements = elements;
  inst.sets.resize(sets);
  for (auto& s : inst.sets) {
    // Tie-heavy instances quantise weights and set sizes so many sets share
    // the exact (ratio, fresh) key and selection hinges on the index rule.
    s.weight = tie_heavy ? static_cast<double>(rng.uniform_int(0, 2))
                         : rng.uniform(0.5, 10.0);
    for (std::size_t e = 0; e < elements; ++e) {
      if (rng.bernoulli(density)) s.elements.push_back(e);
    }
  }
  // One universal set guarantees feasibility.
  inst.sets.push_back({100.0, {}});
  for (std::size_t e = 0; e < elements; ++e) {
    inst.sets.back().elements.push_back(e);
  }
  return inst;
}

class SetCoverDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetCoverDiffTest, HeapMatchesReferenceScanExactly) {
  const std::uint64_t seed = GetParam();
  const std::size_t elements = 8 + (seed % 40);
  const std::size_t sets = 4 + (seed % 23);
  const double density = 0.05 + 0.5 * static_cast<double>(seed % 7) / 6.0;
  for (bool tie_heavy : {false, true}) {
    const auto inst =
        random_cover(elements, sets, density, tie_heavy, seed);
    const auto fast = graph::greedy_weighted_set_cover(inst);
    const auto ref = graph::greedy_weighted_set_cover_reference(inst);
    EXPECT_EQ(fast.chosen_sets, ref.chosen_sets)
        << "seed " << seed << " tie_heavy " << tie_heavy;
    EXPECT_EQ(fast.total_weight, ref.total_weight)
        << "seed " << seed << " tie_heavy " << tie_heavy;
  }
}

/// A batch-shaped instance: elements are requests held by 1-3 disks
/// (sets), most sets cost the same standby wake-up, some are free, one is
/// empty, and a replica can be listed twice in one set.
graph::SetCoverInstance wsc_shaped_cover(std::uint64_t seed) {
  util::Rng rng(seed);
  graph::SetCoverInstance inst;
  inst.num_elements = 1 + rng.next_below(128);
  inst.sets.resize(4 + rng.next_below(60));
  for (auto& set : inst.sets) {
    const std::uint64_t kind = rng.next_below(8);
    set.weight = kind < 4   ? 13.5  // standby: the common, tied weight
                 : kind == 4 ? 0.0  // free: already paid for this interval
                 : kind == 5 ? 2.25
                             : rng.uniform(0.1, 20.0);
  }
  for (std::size_t e = 0; e < inst.num_elements; ++e) {
    const std::uint64_t copies = 1 + rng.next_below(3);
    for (std::uint64_t c = 0; c < copies; ++c) {
      auto& set = inst.sets[rng.next_below(inst.sets.size())];
      set.elements.push_back(e);
      if (rng.bernoulli(0.05)) set.elements.push_back(e);
    }
  }
  const auto at = static_cast<std::ptrdiff_t>(
      rng.next_below(inst.sets.size() + 1));
  inst.sets.insert(inst.sets.begin() + at, {0.0, {}});
  return inst;
}

TEST_P(SetCoverDiffTest, WscShapedInstancesMatchTheReferenceScan) {
  const std::uint64_t seed = GetParam();
  graph::SetCoverWorkspace ws;  // shared, so each solve starts warm
  for (std::uint64_t k = 0; k < 4; ++k) {
    const auto inst = wsc_shaped_cover(seed * 4 + k);
    const auto& fast = graph::greedy_weighted_set_cover(inst, ws);
    const auto ref = graph::greedy_weighted_set_cover_reference(inst);
    EXPECT_EQ(fast.chosen_sets, ref.chosen_sets) << "seed " << seed << "." << k;
    EXPECT_EQ(fast.total_weight, ref.total_weight)
        << "seed " << seed << "." << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetCoverDiffTest,
                         ::testing::Range<std::uint64_t>(1, 31));

/// The InvariantError message of `solve`, or "" if it did not throw one.
template <typename Solve>
std::string invariant_message(Solve&& solve) {
  try {
    solve();
  } catch (const InvariantError& e) {
    return e.what();
  }
  return "";
}

TEST(SetCoverValidation, FusedPassRejectsWhatValidateAndFeasibleReject) {
  struct Bad {
    const char* name;
    graph::SetCoverInstance inst;
    const char* says;
  };
  const std::vector<Bad> bad = {
      {"negative weight", {2, {{1.0, {0, 1}}, {-1.0, {1}}}},
       "set 1 has negative weight -1"},
      {"out of range", {2, {{1.0, {0, 1}}, {1.0, {1, 2}}}},
       "set 1 contains out-of-range element 2"},
      {"infeasible", {3, {{1.0, {0, 2}}}}, "set cover instance is infeasible"},
      // Validation comes first, as validate() runs before feasible().
      {"both", {3, {{-2.0, {0}}}}, "set 0 has negative weight -2"},
  };
  graph::SetCoverWorkspace ws;
  for (const Bad& b : bad) {
    const std::string fast = invariant_message(
        [&] { graph::greedy_weighted_set_cover(b.inst, ws); });
    EXPECT_NE(fast.find(b.says), std::string::npos) << b.name << ": " << fast;
    const std::string ref = invariant_message(
        [&] { graph::greedy_weighted_set_cover_reference(b.inst); });
    EXPECT_NE(ref.find(b.says), std::string::npos) << b.name << ": " << ref;
  }
}

// --- zero-allocation contracts ----------------------------------------------

TEST(SolverAllocation, WarmExplicitGwminSolveIsAllocationFree) {
  const auto g = random_graph(256, 0.05, WeightMode::kContinuous, 5);
  graph::MwisWorkspace ws;
  graph::MwisSolution out;
  graph::gwmin(g, ws, out);   // warm gwmin's high-water marks
  graph::gwmin2(g, ws, out);  // …and gwmin2's
  EXPECT_EQ(allocations_during([&] { graph::gwmin(g, ws, out); }), 0u);
  EXPECT_EQ(allocations_during([&] { graph::gwmin2(g, ws, out); }), 0u);
}

TEST(SolverAllocation, WarmConflictSolveIsAllocationFree) {
  const auto g = synthetic_conflict_graph(400, 21);
  ASSERT_GT(g.size(), 0u);
  core::GwminWorkspace ws;
  std::vector<std::uint32_t> selected;
  core::solve_gwmin(g, false, ws, selected);
  core::solve_gwmin(g, true, ws, selected);
  EXPECT_EQ(
      allocations_during([&] { core::solve_gwmin(g, false, ws, selected); }),
      0u);
  EXPECT_EQ(
      allocations_during([&] { core::solve_gwmin(g, true, ws, selected); }),
      0u);
}

/// Allocations an EASCHED_AUDIT build adds per check_cover call: its
/// covered-element marker. Release builds never call it on the hot path.
constexpr std::uint64_t kAuditCoverAllocs = audit_enabled() ? 1 : 0;

TEST(SolverAllocation, WarmGreedySetCoverIsAllocationFree) {
  const auto big = wsc_shaped_cover(7);
  const auto small = wsc_shaped_cover(8);
  graph::SetCoverWorkspace ws;
  graph::greedy_weighted_set_cover(big, ws);
  graph::greedy_weighted_set_cover(small, ws);
  EXPECT_EQ(allocations_during([&] {
              graph::greedy_weighted_set_cover(big, ws);
              graph::greedy_weighted_set_cover(small, ws);
            }),
            2 * kAuditCoverAllocs);
}

/// A SystemView over the paper's 180-disk placement with seeded mixed disk
/// states, as the batch scheduler sees it mid-run.
class MixedStateView final : public core::SystemView {
 public:
  explicit MixedStateView(std::uint64_t seed)
      : placement_(placement::make_zipf_placement({})),
        snapshots_(placement_.num_disks()) {
    util::Rng rng(seed);
    for (auto& s : snapshots_) {
      s.state = rng.bernoulli(0.6) ? disk::DiskState::Standby
                                   : disk::DiskState::Idle;
      s.last_request_time = rng.uniform(0.0, 100.0);
      s.queued_requests = static_cast<std::size_t>(rng.next_below(4));
    }
  }
  double now() const override { return 100.0; }
  const placement::PlacementMap& placement() const override {
    return placement_;
  }
  core::DiskSnapshot snapshot(DiskId k) const override {
    return snapshots_[k];
  }
  const disk::DiskPowerParams& power_params() const override {
    return power_;
  }

 private:
  placement::PlacementMap placement_;
  std::vector<core::DiskSnapshot> snapshots_;
  disk::DiskPowerParams power_ = disk::example_power_params();
};

TEST(SolverAllocation, WarmWscAssignAllocatesOnlyTheReturnedAssignment) {
  const MixedStateView view(3);
  util::Rng rng(11);
  std::vector<disk::Request> burst(128);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    burst[i].id = i;
    burst[i].data = static_cast<DataId>(
        rng.next_below(view.placement().num_data()));
  }
  core::WscBatchScheduler sched(0.1);
  const auto first = sched.assign(burst, view);
  sched.assign(burst, view);
  std::vector<DiskId> warm;
  // The returned assignment; an audit build also checks the cover twice
  // (after the greedy and in assign).
  EXPECT_EQ(allocations_during([&] { warm = sched.assign(burst, view); }),
            1 + 2 * kAuditCoverAllocs);
  EXPECT_EQ(warm, first);
}

// --- memory bounds -----------------------------------------------------------

TEST(ConflictGraphMemory, BuildAllocatesUnder32BytesPerNode) {
  // The graph stores i, j and weight (16 B), two incidence entries (8 B)
  // and a degree (4 B) per node, plus a 4 B offset per request and one per
  // disk; the 24 B node struct it replaced put this at 37 B, and the
  // explicit adjacency before that at ~140 B. Measured on the second build
  // through one workspace — the steady state of a sweep, where the
  // per-disk lists are warm and the node arrays are reserved exactly.
  const auto in = synthetic_instance(20000, 31);
  core::ConflictGraphWorkspace ws;
  const disk::DiskPowerParams power;
  const auto warm = core::build_conflict_graph(in.trace, in.placement, power,
                                               {}, ws);
  ASSERT_GT(warm.size(), in.trace.size());
  std::size_t nodes = 0;
  const std::uint64_t bytes = bytes_during([&] {
    nodes = core::build_conflict_graph(in.trace, in.placement, power, {}, ws)
                .size();
  });
  EXPECT_EQ(nodes, warm.size());
  EXPECT_LT(bytes, 32u * nodes) << bytes / nodes << " B per node";
}

TEST(MwisSchedulerMemory, SolverSchedulePeaksUnder57BytesPerNode) {
  // Peak live bytes across a steady-state schedule() (kSolverOnly, no
  // refinement) over what was live before the scheduler's first call: the
  // GWMIN solve, where the graph (~28 B per node), the selection heap
  // (20 B), the touched marker (4 B) and the per-disk request lists (~1 B)
  // are live together: ~54 B. The selection check reuses that marker and
  // the solve decrements the graph's degrees in place; a second degree
  // array (4 B), a dense weight copy (8 B) or a thread-local check marker
  // (4 B) each push this past the bound (the 24 B node struct with those
  // copies peaked at 77 B per node). This is the quantity the offline
  // benchmark's peak RSS tracks.
  const auto in = synthetic_instance(20000, 51);
  const disk::DiskPowerParams power;
  core::MwisOptions opts;
  opts.seed = core::MwisOptions::Seed::kSolverOnly;
  opts.refine_passes = 0;
  opts.graph.successor_horizon = 4;
  core::MwisOfflineScheduler sched(opts);
  const std::uint64_t before = live_bytes();
  sched.schedule(in.trace, in.placement, power);  // warm the workspaces
  reset_peak_live_bytes();
  sched.schedule(in.trace, in.placement, power);
  const std::uint64_t peak = peak_live_bytes() - before;
  const std::size_t nodes = sched.last_graph_nodes();
  ASSERT_GT(nodes, 10 * in.trace.size());
  EXPECT_LT(peak, 57u * nodes) << peak / nodes << " B per node";
}

TEST(MwisSchedulerExact, OversizedInstanceThrowsBeforeMaterialising) {
  // An exact solve over the limit must be refused before to_weighted_graph
  // allocates the O(m) adjacency, so the failed call allocates little more
  // than the graph build itself.
  const auto in = synthetic_instance(2000, 41);
  const disk::DiskPowerParams power;
  core::MwisOptions opts;
  opts.algorithm = core::MwisOptions::Algorithm::kExact;
  opts.seed = core::MwisOptions::Seed::kSolverOnly;
  core::ConflictGraphWorkspace ws;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  const std::uint64_t build_bytes = bytes_during([&] {
    const auto g =
        core::build_conflict_graph(in.trace, in.placement, power, opts.graph,
                                   ws);
    nodes = g.size();
    edges = g.num_edges();
  });
  ASSERT_GT(nodes, opts.exact_vertex_limit);
  ASSERT_GT(edges, 1000u);

  core::MwisOfflineScheduler sched(opts);
  std::string what;
  const std::uint64_t bytes = bytes_during([&] {
    try {
      sched.schedule(in.trace, in.placement, power);
    } catch (const InvariantError& e) {
      what = e.what();
    }
  });
  std::ostringstream want;
  want << "exact_mwis instance too large (" << nodes << " > "
       << opts.exact_vertex_limit << ")";
  EXPECT_NE(what.find(want.str()), std::string::npos) << what;
  // The explicit adjacency alone is 2·m uint32_t entries (8·m bytes); the
  // refused call may not allocate even half of that beyond the build.
  EXPECT_LT(bytes, build_bytes + 4 * edges);
}

}  // namespace
}  // namespace eas
