// Differential suite for the heap-driven solvers and the implicit conflict
// graph.
//
// The conflict-graph GWMIN/GWMIN2 (core::solve_gwmin_in_place) and the
// exact-count set cover scan each promise to reproduce their linear-scan
// reference *exactly* — same selections, bit for bit — because the
// scheduling pipeline's determinism gates (sweep fingerprints, emitter
// goldens) pin the historical outputs. The GWMIN replica below is a full
// argmax rescan with the historical higher-index tie-break; it is run on
// ~100 seeded conflict instances whose arrivals sit on an exact time
// lattice (equal gaps give bit-equal weights, so score ties are common and
// the index tie-break decides them), on structured tie families, on
// batch-shaped set-cover instances, and on a 10k-node smoke (which the
// sanitize preset re-runs).
//
// core::ConflictGraph derives its neighbour rows from per-request incidence
// lists; the rows are checked, entry for entry and in order, against the
// explicit bucket-built CSR the graph used to store
// (build_conflict_csr_reference), and the replica solves over that CSR.
// Its node columns (first, second, disk_of, weight) are checked against an
// independent enumeration (enumerate_saving_nodes_reference), including
// placements whose empty disks own empty id ranges. Every node's
// closed-form build degree is checked against a count of its walk, and
// the solve, which compacts incidence rows as nodes die, must leave the
// graph exactly as built apart from the degrees it consumes.
//
// It also links the counting operator new shim (alloc_counter.cpp) to pin
// the zero-allocation contract of warm-workspace solves, the single
// allocation of a warm batch-scheduler tick, the memory bound
// of a conflict-graph build and the peak live bytes of an offline
// schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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
#include "fault/failure_view.hpp"
#include "graph/mwis.hpp"
#include "graph/set_cover.hpp"
#include "placement/placement.hpp"
#include "reference_solvers.hpp"
#include "scripted_fleet.hpp"
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

// --- conflict-graph solve vs linear-scan replica ----------------------------

/// In-test replica of core::solve_gwmin_in_place's *historical* semantics
/// over an explicit conflict CSR: a full linear argmax per round over
/// (score, node id) with the HIGHER id winning ties (the order a lazy
/// max-heap of std::pair<double, uint32_t> pops), degrees decremented per
/// kill, and — critically — GWMIN2 neighbourhood weights maintained by
/// incremental subtraction in doomed-major row-minor order, so
/// floating-point rounding matches the production solver bit for bit.
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

/// The in-place solve run on a copy of `g` with `ws`, so `g` stays as
/// built.
std::vector<std::uint32_t> solve_copy(const core::ConflictGraph& g,
                                      bool use_gwmin2,
                                      core::GwminWorkspace& ws) {
  core::ConflictGraph copy = g;
  std::vector<std::uint32_t> selected;
  core::solve_gwmin_in_place(copy, use_gwmin2, ws, selected);
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
    core::GwminWorkspace ws;
    for (bool gw2 : {false, true}) {
      const auto fast = solve_copy(g, gw2, ws);
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
  core::GwminWorkspace ws;
  for (bool gw2 : {false, true}) {
    EXPECT_EQ(solve_copy(g, gw2, ws), solve_gwmin_replica(ref, gw2))
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

// --- GWMIN tie families, workspace reuse and scale --------------------------

/// `n` reads of uniformly drawn data items on a time lattice: every gap is
/// a draw from `gaps` times a power-of-two quantum of at most a tenth of
/// the saving window. Lattice times and their differences are exact, so
/// equal gaps give bit-equal weights: score ties are common, and only the
/// solve's higher-id tie-break decides between them.
trace::Trace lattice_trace(util::Rng& rng, DataId num_data, int n,
                           const std::vector<int>& gaps) {
  const double quantum = std::exp2(std::floor(
      std::log2(disk::DiskPowerParams{}.saving_window_seconds() / 10)));
  std::vector<trace::TraceRecord> recs;
  double t = 0.0;
  for (int r = 0; r < n; ++r) {
    t += quantum * gaps[rng.next_below(gaps.size())];
    recs.push_back({t, static_cast<DataId>(rng.next_below(num_data)), 4096,
                    true});
  }
  return trace::Trace(std::move(recs));
}

/// A lattice trace of `n` reads on a `num_disks`-disk rf-`rf` Zipf
/// placement of 3–11 items.
RowInstance lattice_instance(std::uint64_t seed, DiskId num_disks,
                             unsigned rf, std::size_t horizon, int n,
                             const std::vector<int>& gaps) {
  util::Rng rng(seed);
  placement::ZipfPlacementConfig pc;
  pc.num_disks = num_disks;
  pc.num_data = static_cast<DataId>(3 + seed % 9);
  pc.replication_factor = rf;
  pc.seed = seed;
  core::ConflictGraphOptions opts;
  opts.successor_horizon = horizon;
  return {lattice_trace(rng, pc.num_data, n, gaps),
          placement::make_zipf_placement(pc), opts};
}

/// Requires the in-place solve of the graph built from `in` (on a copy,
/// with `ws`) to select exactly what the replica selects over the
/// reference CSR, for GWMIN and GWMIN2. Returns the graph's node count.
std::size_t expect_solves_match_replica(const RowInstance& in,
                                        core::GwminWorkspace& ws,
                                        const std::string& label) {
  const auto g = core::build_conflict_graph(in.trace, in.placement, {},
                                            in.options);
  const auto nodes = core::enumerate_saving_nodes_reference(
      in.trace, in.placement, {}, in.options);
  const auto ref = core::build_conflict_csr_reference(nodes, in.trace.size());
  for (bool gw2 : {false, true}) {
    EXPECT_EQ(solve_copy(g, gw2, ws), solve_gwmin_replica(ref, gw2))
        << label << " gwmin2=" << gw2;
  }
  return g.size();
}

class GwminDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GwminDiffTest, HeapMatchesReferenceScanExactly) {
  const std::uint64_t seed = GetParam();
  // Two lattice instances per seed — gaps of 0, 1, 2 or 4 quanta, and
  // every gap one quantum — times 100 seeds; disks, rf, horizon and length
  // vary with the seed, so the family spans edge-less chains through dense
  // multi-replica rows.
  const auto rf = static_cast<unsigned>(1 + seed % 4);
  const auto disks = static_cast<DiskId>(rf + seed % 3);
  const std::size_t horizon = 1 + seed % 5;
  const int n = 20 + static_cast<int>(seed % 41);
  core::GwminWorkspace ws;
  for (const auto& gaps : {std::vector<int>{0, 1, 2, 4}, std::vector<int>{1}}) {
    expect_solves_match_replica(
        lattice_instance(seed, disks, rf, horizon, n, gaps), ws,
        "seed " + std::to_string(seed) + " gaps " +
            std::to_string(gaps.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GwminDiffTest,
                         ::testing::Range<std::uint64_t>(1, 101));

TEST(GwminDiff, AdversarialTieFamilies) {
  core::GwminWorkspace ws;
  // Every gap one quantum: most rounds are ties, so any deviation from the
  // higher-id rule changes the answer.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_GT(expect_solves_match_replica(
                  lattice_instance(seed, 4, 2, 3, 48, {1}), ws,
                  "unit seed " + std::to_string(seed)),
              0u);
  }
  // Structured shapes on explicit placements: `locations` lists the disks
  // of each item.
  auto shape = [](DiskId num_disks, std::vector<std::vector<DiskId>> locations,
                  std::size_t horizon, const std::vector<int>& gaps) {
    util::Rng rng(5);
    const auto num_data = static_cast<DataId>(locations.size());
    core::ConflictGraphOptions opts;
    opts.successor_horizon = horizon;
    return RowInstance{
        lattice_trace(rng, num_data, 40, gaps),
        placement::PlacementMap(num_disks, std::move(locations)), opts};
  };
  // One item on every disk: each (i, j) is a node on all three disks, and
  // all nodes one gap apart weigh the same.
  EXPECT_GT(expect_solves_match_replica(shape(3, {{0, 1, 2}}, 2, {1}), ws,
                                        "all replicas"),
            0u);
  // Simultaneous arrivals: every node has the zero-gap weight.
  EXPECT_GT(expect_solves_match_replica(shape(2, {{0, 1}, {1}}, 3, {0}), ws,
                                        "simultaneous"),
            0u);
  // One item on one disk, horizon 1: a chain of equal-weight nodes with no
  // edge between them.
  EXPECT_GT(expect_solves_match_replica(shape(1, {{0}}, 1, {1}), ws,
                                        "edge-less chain"),
            0u);
  // Arrivals farther apart than the saving window: no node at all.
  EXPECT_EQ(expect_solves_match_replica(shape(2, {{0, 1}}, 2, {32}), ws,
                                        "empty"),
            0u);
}

TEST(GwminDiff, WorkspaceReuseAcrossDifferentGraphsIsClean) {
  // A workspace warmed on a large graph must not leak stale heap positions,
  // row live ends, neighbourhood weights or epoch marks into a later,
  // smaller solve.
  core::GwminWorkspace ws;
  const auto big = lattice_instance(7, 6, 3, 4, 80, {0, 1, 2, 4});
  const auto small = lattice_instance(8, 2, 1, 2, 12, {1});
  for (int round = 0; round < 3; ++round) {
    expect_solves_match_replica(big, ws, "reuse/big");
    expect_solves_match_replica(small, ws, "reuse/small");
  }
}

TEST(GwminDiff, TenThousandNodeSmoke) {
  // Scale smoke (re-run under ASan by the sanitize preset): solve a
  // conflict graph of over 10k nodes with GWMIN and GWMIN2, check both
  // selections are independent and maximal, and GWMIN's weight against
  // Sakai et al.'s guarantee sum_v w(v) / (d(v) + 1).
  const auto g = synthetic_conflict_graph(4000, 42);
  ASSERT_GT(g.size(), 10000u);
  double bound = 0.0;
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    bound += g.weight[v] / static_cast<double>(g.degree(v) + 1);
  }
  core::GwminWorkspace ws;
  for (bool gw2 : {false, true}) {
    const auto sel = solve_copy(g, gw2, ws);
    const double w = g.selection_weight(sel);  // checks independence
    if (!gw2) {
      EXPECT_GE(w, bound - 1e-9);
    }
    std::vector<char> in(g.size(), 0);
    for (const std::uint32_t v : sel) in[v] = 1;
    for (std::uint32_t v = 0; v < g.size(); ++v) {
      if (in[v]) continue;
      bool blocked = false;
      g.for_each_neighbor(v, [&](std::uint32_t u) { blocked |= in[u] != 0; });
      ASSERT_TRUE(blocked) << "gwmin2=" << gw2 << " node " << v
                           << " could be added";
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
  // The select loop compacts the graph's own incidence rows as nodes die
  // and must restore them before returning; it consumes only `degrees`.
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
      const auto built = core::build_conflict_graph(in.trace, in.placement,
                                                    {}, in.options);
      ASSERT_GT(built.size(), 0u) << tag;
      core::ConflictGraph g = built;
      std::vector<std::uint32_t> in_place;
      core::solve_gwmin_in_place(g, gw2, ws, in_place);
      expect_as_built(g, built, tag);
      EXPECT_TRUE(g.degrees.empty()) << tag;
      // A fresh workspace on a fresh copy selects the same nodes.
      core::GwminWorkspace fresh;
      EXPECT_EQ(in_place, solve_copy(built, gw2, fresh)) << tag;
    }
  }
}

// --- set cover: exact-count scan vs reference recount ----------------------

graph::SetCoverInstance random_cover(std::size_t elements, std::size_t sets,
                                     double density, bool tie_heavy,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<graph::SetSpec> specs(sets);
  for (auto& s : specs) {
    // Tie-heavy instances quantise weights and set sizes so many sets share
    // the exact (ratio, fresh) key and selection hinges on the index rule.
    s.weight = tie_heavy ? static_cast<double>(rng.uniform_int(0, 2))
                         : rng.uniform(0.5, 10.0);
    for (std::uint32_t e = 0; e < elements; ++e) {
      if (rng.bernoulli(density)) s.elements.push_back(e);
    }
  }
  // One universal set guarantees feasibility.
  specs.push_back({100.0, {}});
  for (std::uint32_t e = 0; e < elements; ++e) {
    specs.back().elements.push_back(e);
  }
  return graph::make_set_cover(elements, specs);
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
  const auto elements = static_cast<std::uint32_t>(1 + rng.next_below(128));
  std::vector<graph::SetSpec> sets(4 + rng.next_below(60));
  for (auto& set : sets) {
    const std::uint64_t kind = rng.next_below(8);
    set.weight = kind < 4   ? 13.5  // standby: the common, tied weight
                 : kind == 4 ? 0.0  // free: already paid for this interval
                 : kind == 5 ? 2.25
                             : rng.uniform(0.1, 20.0);
  }
  for (std::uint32_t e = 0; e < elements; ++e) {
    const std::uint64_t copies = 1 + rng.next_below(3);
    for (std::uint64_t c = 0; c < copies; ++c) {
      auto& set = sets[rng.next_below(sets.size())];
      set.elements.push_back(e);
      if (rng.bernoulli(0.05)) set.elements.push_back(e);
    }
  }
  const auto at = static_cast<std::ptrdiff_t>(
      rng.next_below(sets.size() + 1));
  sets.insert(sets.begin() + at, {0.0, {}});
  return graph::make_set_cover(elements, sets);
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

// --- batch tick: flat build + greedy vs the reference tick -----------------

/// The batch tick as it was written before its flat build, kept here as the
/// oracle: sets in first-encounter order over readable replicas, each priced
/// by the free Eq. 5/6 functions, solved by the reference scan, and each
/// request assigned to the first chosen set (in greedy order) holding it.
struct ReferenceTick {
  std::vector<DiskId> candidates;
  graph::SetCoverSolution cover;
  std::vector<DiskId> assignment;
};

ReferenceTick reference_tick(const std::vector<disk::Request>& batch,
                             const core::SystemView& view,
                             const core::CostParams& cost, bool pure_energy) {
  ReferenceTick t;
  const fault::FailureView* fv =
      view.degraded() ? view.failure_view() : nullptr;
  std::vector<graph::SetSpec> sets;
  std::vector<std::size_t> elem_req;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto e = static_cast<std::uint32_t>(elem_req.size());
    bool coverable = false;
    for (DiskId k : view.placement().locations(batch[i].data)) {
      if (fv != nullptr && !fv->replica_readable(batch[i].data, k)) continue;
      const auto it = std::find(t.candidates.begin(), t.candidates.end(), k);
      const auto s = static_cast<std::size_t>(it - t.candidates.begin());
      if (it == t.candidates.end()) {
        t.candidates.push_back(k);
        const disk::DiskStatus& d = view.disk(k);
        sets.push_back(
            {pure_energy
                 ? core::marginal_energy_cost(d, view.now(),
                                              view.power_params())
                 : core::composite_cost(d, view.now(), view.power_params(),
                                        cost),
             {}});
      }
      sets[s].elements.push_back(e);
      coverable = true;
    }
    if (coverable) elem_req.push_back(i);
  }
  const auto inst = graph::make_set_cover(elem_req.size(), sets);
  t.cover = graph::greedy_weighted_set_cover_reference(inst);
  t.assignment.assign(batch.size(), kInvalidDisk);
  for (std::size_t s : t.cover.chosen_sets) {
    for (std::uint32_t e : inst.elements(s)) {
      const std::size_t i = elem_req[e];
      if (t.assignment[i] == kInvalidDisk) t.assignment[i] = t.candidates[s];
    }
  }
  return t;
}

/// Seeded fleet states. Tie-heavy fleets use only standby, active and
/// spinning-up disks with empty queues, so most sets weigh exactly the wake
/// cost or exactly 0 and the greedy's tie rules decide the cover.
void scramble_rows(std::vector<disk::DiskStatus>& rows, double now,
                   bool tie_heavy, util::Rng& rng) {
  constexpr disk::DiskState kStates[] = {
      disk::DiskState::Standby, disk::DiskState::Active,
      disk::DiskState::SpinningUp, disk::DiskState::Idle,
      disk::DiskState::SpinningDown};
  for (auto& r : rows) {
    r.state = kStates[rng.next_below(tie_heavy ? 3 : 5)];
    r.state_since = rng.uniform(0.0, now);
    // Some disks never served a request; some last served one "after" now.
    r.last_request_time =
        rng.bernoulli(0.2) ? -1.0 : rng.uniform(0.0, now + 5.0);
    r.queued_requests =
        tie_heavy ? 0 : static_cast<std::size_t>(rng.next_below(4));
  }
}

TEST(WscTickDiff, MatchesTheReferenceTickOn2400SeededBatches) {
  std::size_t batches = 0;
  std::size_t degraded = 0;
  std::size_t uncoverable = 0;
  std::size_t small_batches = 0;
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    util::Rng rng(seed * 7919);
    const auto num_disks = static_cast<DiskId>(2 + rng.next_below(30));
    const auto rf = static_cast<unsigned>(
        1 + rng.next_below(std::min<DiskId>(5, num_disks)));
    const auto num_data = static_cast<DataId>(1 + rng.next_below(300));
    std::vector<std::vector<DiskId>> lists(num_data);
    for (auto& locs : lists) {
      while (locs.size() < rf) {
        const auto k = static_cast<DiskId>(rng.next_below(num_disks));
        if (std::find(locs.begin(), locs.end(), k) == locs.end()) {
          locs.push_back(k);
        }
      }
    }
    testing::ScriptedFleet fleet(
        placement::PlacementMap(num_disks, std::move(lists)));
    const double now = rng.uniform(1.0, 200.0);
    fleet.view.set_now(now);
    const bool tie_heavy = rng.bernoulli(0.5);
    scramble_rows(fleet.rows, now, tie_heavy, rng);

    // A third of the fleets are degraded: dead disks and lost ranges, so
    // some replicas are unreadable and some requests have none left.
    fault::FailureView fv(num_disks);
    if (seed % 3 == 0) {
      for (DiskId k = 0; k < num_disks; ++k) {
        if (rng.bernoulli(0.25)) {
          fv.set_health(0.0, k, fault::DiskHealth::kDown);
        }
        if (rng.bernoulli(0.2)) {
          const auto lo = static_cast<DataId>(rng.next_below(num_data));
          fv.add_lost_range(0.0, k, lo,
                            lo + static_cast<DataId>(rng.next_below(40)));
        }
      }
      fleet.view.set_failure_view(&fv);
      if (fleet.view.degraded()) ++degraded;
    }

    constexpr double kAlphas[] = {0.0, 0.2, 0.5, 1.0};
    const core::CostParams cost{kAlphas[rng.next_below(4)],
                                rng.bernoulli(0.5) ? 100.0 : 1.0};
    const bool pure_energy = rng.bernoulli(0.3);
    core::WscBatchScheduler sched(
        0.1, cost,
        pure_energy ? core::WscBatchScheduler::WeightMode::kPureEnergy
                    : core::WscBatchScheduler::WeightMode::kCompositeCost);

    // Two batches through one scheduler, so the second runs on the first's
    // warm scratch.
    for (int round = 0; round < 2; ++round) {
      const std::string tag = "seed " + std::to_string(seed) + " round " +
                              std::to_string(round);
      // Half the batches hold 1-4 requests, the common tick of a batch
      // run at the paper's arrival rates; the rest 1-256.
      const bool small = rng.bernoulli(0.5);
      std::vector<disk::Request> batch(1 + rng.next_below(small ? 4 : 256));
      small_batches += batch.size() <= 4 ? 1 : 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].id = i;
        // The same data twice in one batch, often.
        batch[i].data = i > 0 && rng.bernoulli(0.2)
                            ? batch[rng.next_below(i)].data
                            : static_cast<DataId>(rng.next_below(num_data));
      }
      const std::vector<DiskId> assignment = sched.assign(batch, fleet.view);
      const graph::SetCoverSolution cover = sched.last_cover();
      std::vector<DiskId> candidates;
      sched.build_instance(batch, fleet.view, candidates);

      const ReferenceTick ref = reference_tick(batch, fleet.view, cost,
                                               pure_energy);
      ASSERT_EQ(candidates, ref.candidates) << tag;
      ASSERT_EQ(cover.chosen_sets, ref.cover.chosen_sets) << tag;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(cover.total_weight),
                std::bit_cast<std::uint64_t>(ref.cover.total_weight))
          << tag;
      ASSERT_EQ(assignment, ref.assignment) << tag;
      uncoverable += static_cast<std::size_t>(
          std::count(assignment.begin(), assignment.end(), kInvalidDisk));
      ++batches;
    }
  }
  EXPECT_EQ(batches, 2400u);
  EXPECT_GT(small_batches, 1100u);
  // The degraded fleets did exercise unreadable replicas and requests with
  // none left.
  EXPECT_GT(degraded, 300u);
  EXPECT_GT(uncoverable, 0u);
}

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
      {"negative weight",
       graph::make_set_cover(2, {{1.0, {0, 1}}, {-1.0, {1}}}),
       "set 1 has negative weight -1"},
      {"out of range", graph::make_set_cover(2, {{1.0, {0, 1}}, {1.0, {1, 2}}}),
       "set 1 contains out-of-range element 2"},
      {"infeasible", graph::make_set_cover(3, {{1.0, {0, 2}}}),
       "set cover instance is infeasible"},
      // Validation comes first, as validate() runs before feasible().
      {"both", graph::make_set_cover(3, {{-2.0, {0}}}),
       "set 0 has negative weight -2"},
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

TEST(SolverAllocation, WarmConflictSolveIsAllocationFree) {
  const auto built = synthetic_conflict_graph(400, 21);
  ASSERT_GT(built.size(), 0u);
  core::GwminWorkspace ws;
  std::vector<std::uint32_t> selected;
  for (bool gw2 : {false, true}) {  // warm both variants' high-water marks
    auto g = built;
    core::solve_gwmin_in_place(g, gw2, ws, selected);
  }
  for (bool gw2 : {false, true}) {
    auto g = built;  // the copy is made outside the counted region
    EXPECT_EQ(allocations_during(
                  [&] { core::solve_gwmin_in_place(g, gw2, ws, selected); }),
              0u)
        << "gwmin2=" << gw2;
  }
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

/// Seeded mixed disk states over the paper's 180-disk placement, as the
/// batch scheduler sees them mid-run.
void mix_states(std::vector<disk::DiskStatus>& rows, std::uint64_t seed) {
  util::Rng rng(seed);
  for (auto& s : rows) {
    s.state = rng.bernoulli(0.6) ? disk::DiskState::Standby
                                 : disk::DiskState::Idle;
    s.last_request_time = rng.uniform(0.0, 100.0);
    s.queued_requests = static_cast<std::size_t>(rng.next_below(4));
  }
}

TEST(SolverAllocation, WarmWscAssignAllocatesOnlyTheReturnedAssignment) {
  testing::ScriptedFleet fleet(placement::make_zipf_placement({}));
  mix_states(fleet.rows, 3);
  fleet.view.set_now(100.0);
  const core::SystemView& view = fleet.view;
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
