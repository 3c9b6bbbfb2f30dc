// Conflict-graph construction for offline scheduling (§3.1.2, Fig 4).
//
// Step 1 creates a node for every energy-saving opportunity X(i,j,k) > 0:
// request i scheduled on disk k with request j as its successor, both of
// whose data live on k (Eq. 4), with j arriving inside the saving window
// (Eq. 3). Step 2 joins nodes that cannot coexist in a valid schedule:
//   * energy-constraint: same first request i (a request has one successor);
//   * schedule-constraint: the nodes share a request but name different
//     disks (a request is served by exactly one disk).
// Both constraints are decided by the two requests a node names, so the
// edges are not stored: ConflictGraph lists the nodes of each request and
// for_each_neighbor derives a node's neighbours from its two requests' lists.
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

#include <algorithm>
#include <cstdint>
#include <vector>

#include "disk/params.hpp"
#include "graph/indexed_heap.hpp"
#include "graph/mwis.hpp"
#include "placement/placement.hpp"
#include "trace/trace.hpp"
#include "util/epoch_marker.hpp"
#include "util/ids.hpp"

namespace eas::core {

/// One energy-saving opportunity X(i,j,k), assembled on demand by
/// ConflictGraph::node (the graph stores each field in its own array).
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

/// The §3.1.2 graph, stored column-wise with its edges left implicit.
///
/// Nodes: node v is X(first[v], second[v], disk_of(v)) with saving
/// weight[v]. Ids are assigned disk-major, so disk k's nodes are the id
/// range [disk_begin[k], disk_begin[k+1]) and k itself is not stored.
///
/// Edges: two nodes conflict exactly when they share a request and either
/// start at the same request or name different disks, so a node's
/// neighbours can be read off the two requests it names. The graph
/// therefore stores an incidence CSR over requests — for each request r,
/// the nodes naming r as i or j — instead of its adjacency: 2·|nodes|
/// entries where the adjacency held 2·|edges| (20.6M edges over 1.19M
/// nodes on a 100k-request Cello-like trace).
struct ConflictGraph {
  std::vector<std::uint32_t> first;   ///< i of each node
  std::vector<std::uint32_t> second;  ///< j of each node
  std::vector<double> weight;         ///< X(i,j,k) of each node
  /// num_disks + 1 ascending node-id offsets; disk k owns
  /// [disk_begin[k], disk_begin[k+1]), empty for a disk with no node.
  std::vector<std::uint32_t> disk_begin;
  /// Incidence CSR: the nodes naming request r as i or j are
  /// inc_nodes[inc_offsets[r] .. inc_offsets[r+1]), in ascending node id.
  std::vector<std::uint32_t> inc_offsets;
  std::vector<std::uint32_t> inc_nodes;
  /// Conflict degree of each node and the edge count (sum of degrees / 2),
  /// computed once at build time in closed form from per-row role counts
  /// (DESIGN.md §12), not by walking the neighbours.
  /// solve_gwmin_in_place consumes `degrees` as its live-degree array and
  /// releases it: after a solve, degree(), to_weighted_graph() and a second
  /// solve have no degrees to read (the last two throw). Solve a copy to
  /// keep them.
  std::vector<std::uint32_t> degrees;
  std::size_t edge_count = 0;

  std::size_t size() const { return weight.size(); }
  std::size_t num_edges() const { return edge_count; }
  std::size_t degree(std::uint32_t v) const { return degrees[v]; }

  /// The disk of node v: the last disk whose range starts at or before v
  /// ([[hotpath]]: a binary search over num_disks + 1 offsets).
  DiskId disk_of(std::uint32_t v) const {
    const auto it = std::upper_bound(disk_begin.begin(), disk_begin.end(), v);
    return static_cast<DiskId>(it - disk_begin.begin() - 1);
  }

  /// Node v's fields gathered into one value (tests, examples).
  SavingNode node(std::uint32_t v) const {
    return {first[v], second[v], disk_of(v), weight[v]};
  }

  /// Calls fn(u) once for every neighbour u of node v: row v.i, then row
  /// v.j, ascending node id within each ([[hotpath]]: no allocation). A row
  /// member is skipped when it is v itself or compatible with v (a different
  /// first request on the same disk); row v.j also skips a node with v's
  /// (i, j), which row v.i already yielded. "Same disk" is the id-range
  /// test u - lo < span, so only the first-request and (i, j) checks read
  /// the member's fields. The order is part of the contract: GWMIN2's
  /// neighbourhood sums accumulate along it, and the sweep fingerprints pin
  /// their rounding (test_graph_diff compares every walk with the
  /// bucket-built reference CSR).
  template <typename Fn>
  void for_each_neighbor(std::uint32_t v, Fn&& fn) const {
    const std::uint32_t xi = first[v];
    const std::uint32_t xj = second[v];
    const DiskId k = disk_of(v);
    const std::uint32_t lo = disk_begin[k];
    const std::uint32_t span = disk_begin[k + 1] - lo;
    for (std::uint32_t p = inc_offsets[xi]; p < inc_offsets[xi + 1]; ++p) {
      const std::uint32_t u = inc_nodes[p];
      if (u == v || (u - lo < span && first[u] != xi)) continue;
      fn(u);
    }
    for (std::uint32_t p = inc_offsets[xj]; p < inc_offsets[xj + 1]; ++p) {
      const std::uint32_t u = inc_nodes[p];
      if (u == v) continue;
      const std::uint32_t ui = first[u];
      if ((ui != xi && u - lo < span) || (ui == xi && second[u] == xj)) {
        continue;
      }
      fn(u);
    }
  }

  /// Total weight of a node subset; also verifies independence + validity
  /// invariants under EAS_CHECK (used by tests and the scheduler). `in` is
  /// the caller's scratch marker (the solver's, in the scheduler).
  double selection_weight(const std::vector<std::uint32_t>& selected,
                          util::EpochMarker& in) const;
  /// As above with a marker local to the call (tests).
  double selection_weight(const std::vector<std::uint32_t>& selected) const;

  /// Materialises the adjacency as an explicit graph::WeightedGraph: O(m)
  /// memory, so small instances only (tests, exact solves, ablations).
  /// Needs `degrees`, so call it before solve_gwmin_in_place.
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
/// cell, and the per-disk request lists dominate its transient
/// allocations. Keeping one workspace alive across cells reuses those
/// buffers at their high-water capacity.
struct ConflictGraphWorkspace {
  std::vector<std::vector<std::uint32_t>> on_disk;
  /// Step 3's per-row scratch: one entry per replica slot of the row's
  /// request (its disk's node-id range and the row's out-/in-members on it).
  struct RowSlot {
    std::uint32_t lo = 0;
    std::uint32_t span = 0;
    std::uint32_t out = 0;
    std::uint32_t in = 0;
  };
  std::vector<RowSlot> slots;
  /// Step 3's per-request counter of a row's in-members by first request
  /// (all zero between rows).
  std::vector<std::uint32_t> pair_count;
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

/// Reusable scratch for solve_gwmin_in_place (the indexed selection heap,
/// neighbourhood weights, row live ends and the per-selection doomed list).
/// Liveness is the heap's membership set — no separate alive array. Weights
/// are read straight from the graph's dense `weight` array.
struct GwminWorkspace {
  graph::IndexedScoreHeap heap;
  /// Live end of each incidence row: the solve keeps row r's heap-live
  /// members in [inc_offsets[r], row_end[r]) in walk order and parks the
  /// dead ones behind it, so a walk never rescans a dead entry.
  std::vector<std::uint32_t> row_end;
  std::vector<double> nbr_weight;
  std::vector<std::uint32_t> doomed;
  /// Survivors adjacent to this round's kills, deduplicated — each gets one
  /// heap re-key with its final post-round score.
  util::EpochMarker touched;
  std::vector<std::uint32_t> touch_list;
};

/// Scalable GWMIN/GWMIN2 over a ConflictGraph, writing the selected node ids
/// (ascending) into `selected`: indexed max-heap keyed by (score, node id),
/// degrees and neighbourhood weights maintained incrementally: O((V+E) log V)
/// heap work with no tombstone traffic, plus one walk of each dying node's
/// two incidence rows. The walks compact the rows as they go (dead members
/// are parked behind a per-row live end), so each walk scans only the
/// members still in the heap — the live graph, not every edge the graph ever
/// had — in for_each_neighbor's order. Selection order (including the
/// higher-id tie-break the historical lazy pair-heap had) is pinned by the
/// sweep fingerprints and test_graph_diff.
///
/// The solve works on the graph itself, so only one copy of each array is
/// resident: it decrements g.degrees as its live-degree array and releases
/// it on return, and it compacts g.inc_nodes' rows in place and restores
/// them to ascending order before return. Every other field is untouched,
/// so for_each_neighbor and selection_weight still work afterwards. A graph
/// whose degrees an earlier solve consumed is rejected. With a warmed
/// workspace and a reused `selected` buffer, a solve performs no heap
/// allocation (pinned by the counting-allocator test in test_graph_diff).
void solve_gwmin_in_place(ConflictGraph& g, bool use_gwmin2,
                          GwminWorkspace& ws,
                          std::vector<std::uint32_t>& selected);

}  // namespace eas::core
