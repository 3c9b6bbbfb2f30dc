// Conflict-graph construction for offline scheduling (§3.1.2, Fig 4).
//
// Step 1 creates a node for every energy-saving opportunity X(i,j,k) > 0:
// request i scheduled on disk k with request j as its successor, both of
// whose data live on k (Eq. 4), with j arriving inside the saving window
// (Eq. 3). Step 2 adds an edge between nodes that cannot coexist in a valid
// schedule:
//   * energy-constraint: same first request i (a request has one successor);
//   * schedule-constraint: the nodes share a request but name different
//     disks (a request is served by exactly one disk).
//
// Scale control: the paper's formulation enumerates *all* co-located pairs
// (i,j); on a 70k-request trace that is quadratic in burst length. Because
// X(i,j,k) strictly decreases as the gap grows, far successors are strictly
// worse choices, so we enumerate only the next `successor_horizon`
// co-located requests per (request, disk). horizon=1 keeps the densest
// chain; the Fig 4 instance needs horizon >= 2 to contain every node the
// paper draws. This is a documented approximation knob of the *candidate
// set*, not of the solver.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "disk/params.hpp"
#include "graph/mwis.hpp"
#include "placement/placement.hpp"
#include "trace/trace.hpp"
#include "util/epoch_marker.hpp"
#include "util/ids.hpp"

namespace eas::core {

/// One energy-saving opportunity X(i,j,k).
struct SavingNode {
  std::uint32_t i = 0;  ///< earlier request (trace index)
  std::uint32_t j = 0;  ///< candidate successor (trace index), t_j >= t_i
  DiskId k = kInvalidDisk;
  double weight = 0.0;  ///< X(i,j,k) > 0
};

struct ConflictGraphOptions {
  /// Candidate successors considered per (request, disk); >= 1.
  std::size_t successor_horizon = 2;
};

/// The §3.1.2 graph. Adjacency is stored in CSR form (offsets + flat
/// neighbour array) because production instances reach tens of millions of
/// edges, where per-vertex vectors and hashed dedup dominate runtime.
struct ConflictGraph {
  std::vector<SavingNode> nodes;
  /// CSR: neighbours of v are adj_data[adj_offsets[v] .. adj_offsets[v+1]).
  std::vector<std::size_t> adj_offsets;
  std::vector<std::uint32_t> adj_data;

  std::size_t size() const { return nodes.size(); }
  std::size_t num_edges() const { return adj_data.size() / 2; }

  /// Neighbours of node v.
  std::span<const std::uint32_t> neighbors(std::uint32_t v) const {
    return {adj_data.data() + adj_offsets[v],
            adj_offsets[v + 1] - adj_offsets[v]};
  }
  std::size_t degree(std::uint32_t v) const {
    return adj_offsets[v + 1] - adj_offsets[v];
  }

  /// Total weight of a node subset; also verifies independence + validity
  /// invariants under EAS_CHECK (used by tests and the scheduler).
  double selection_weight(const std::vector<std::uint32_t>& selected) const;

  /// Materialises an explicit graph::WeightedGraph (small instances only —
  /// tests, exact solves, ablations).
  graph::WeightedGraph to_weighted_graph() const;
};

/// Per-disk, time-ordered lists of the requests whose data each disk
/// stores: lists[k] holds every request index i with k among
/// placement.locations(trace[i].data), ascending. Reuses the inner
/// lists' capacity.
void list_requests_by_stored_disk(
    const trace::Trace& trace, const placement::PlacementMap& placement,
    std::vector<std::vector<std::uint32_t>>& lists);

/// Reusable scratch for build_conflict_graph: a sweep builds one graph per
/// cell, and the per-disk request lists, per-request node buckets, and CSR
/// cursor array dominate its transient allocations. Keeping one workspace
/// alive across cells reuses those buffers at their high-water capacity.
struct ConflictGraphWorkspace {
  std::vector<std::vector<std::uint32_t>> on_disk;
  std::vector<std::vector<std::uint32_t>> bucket;
  std::vector<std::size_t> cursor;
  /// Node count of the previous build — the reservation estimate for the
  /// next one (cells in a sweep are similar-sized).
  std::size_t last_node_count = 0;
};

ConflictGraph build_conflict_graph(const trace::Trace& trace,
                                   const placement::PlacementMap& placement,
                                   const disk::DiskPowerParams& power,
                                   const ConflictGraphOptions& options = {});

/// As above, reusing `ws` buffers across calls.
ConflictGraph build_conflict_graph(const trace::Trace& trace,
                                   const placement::PlacementMap& placement,
                                   const disk::DiskPowerParams& power,
                                   const ConflictGraphOptions& options,
                                   ConflictGraphWorkspace& ws);

/// Reusable scratch for solve_gwmin (the indexed selection heap,
/// incremental degrees, neighbourhood weights, and the per-selection doomed
/// list). Liveness is the heap's membership set — no separate alive array.
struct GwminWorkspace {
  graph::IndexedScoreHeap<graph::TieOrder::kHighIndexWins> heap;
  std::vector<std::uint32_t> degree;
  /// nodes[v].weight copied dense: the select loop indexes weights at
  /// random, and an 8-byte-stride array stays cache-resident where the
  /// 24-byte SavingNode array does not. Same doubles, same rounding.
  std::vector<double> weight;
  std::vector<double> nbr_weight;
  std::vector<std::uint32_t> doomed;
  /// Survivors adjacent to this round's kills, deduplicated — each gets one
  /// heap re-key with its final post-round score.
  util::EpochMarker touched;
  std::vector<std::uint32_t> touch_list;
};

/// Scalable GWMIN/GWMIN2 over a ConflictGraph: indexed max-heap keyed by
/// (score, node id), degrees and neighbourhood weights maintained
/// incrementally, O((V+E) log V) with no tombstone traffic. Selection order
/// (including the higher-id tie-break the historical lazy pair-heap had) is
/// pinned by the sweep fingerprints and test_graph_diff.
/// Returns selected node ids.
std::vector<std::uint32_t> solve_gwmin(const ConflictGraph& g,
                                       bool use_gwmin2 = false);

/// As above, reusing `ws` buffers across calls (no steady-state allocation
/// beyond the returned selection).
std::vector<std::uint32_t> solve_gwmin(const ConflictGraph& g, bool use_gwmin2,
                                       GwminWorkspace& ws);

/// Out-parameter form: with a warmed workspace and a reused `selected`
/// buffer, a solve performs no heap allocation at all (pinned by the
/// counting-allocator test in test_graph_diff).
void solve_gwmin(const ConflictGraph& g, bool use_gwmin2, GwminWorkspace& ws,
                 std::vector<std::uint32_t>& selected);

}  // namespace eas::core
