// Maximum-weight independent set: the combinatorial core of offline
// scheduling (§3.1).
//
// Theorem 1 reduces the offline energy-saving problem to MWIS on the
// conflict graph over X(i,j,k) nodes. The paper solves it with GMIN, the
// greedy of Sakai, Togasaki & Yamazaki [22]; we provide:
//  * gwmin   — repeatedly take argmax weight(v) / (degree(v) + 1);
//  * gwmin2  — the companion greedy using neighbourhood weight sums,
//              often stronger on weight-skewed graphs;
//  * exact_mwis — branch-and-bound for optimality-gap ablations on small
//              instances.
//
// gwmin/gwmin2 select through an indexed 8-ary heap (indexed_heap.hpp) in
// O((n+m) log n). The original O(n·k) linear-scan greedies live in
// tests/reference_solvers.cpp as executable specifications, and
// tests/test_graph_diff.cpp proves the two produce *identical* vertex sets
// (the heap's (score, lowest-index) tie-break replicates the scan exactly).
//
// The scheduling-specific conflict graph (core/conflict_graph.hpp) stores
// no edges: it derives each node's neighbours from per-request incidence
// lists, and core::solve_gwmin runs the same heap greedy over those
// implicit rows. ConflictGraph::to_weighted_graph materialises one as a
// WeightedGraph for the exact solver and for tests on small instances.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/indexed_heap.hpp"
#include "util/epoch_marker.hpp"

namespace eas::graph {

/// Undirected vertex-weighted graph, immutable CSR adjacency (offsets into
/// one flat neighbour array). Vertices are 0..n-1. Build one with
/// WeightedGraphBuilder (edge list → counting sort, one pass) or adopt a
/// prebuilt CSR (core::ConflictGraph::to_weighted_graph does). Structural
/// invariants — symmetry, no parallel edges, no self-loops — are validated
/// in bulk at construction under the audit tier, not probed per insertion.
class WeightedGraph {
 public:
  /// Edge-less graph of isolated weighted vertices.
  explicit WeightedGraph(std::vector<double> weights);

  /// Adopts a CSR adjacency: neighbours of v are adj[offsets[v] ..
  /// offsets[v+1]). Shape errors (offsets/adj size mismatch) throw always;
  /// the O(n+m) structural audit (range, self-loops, duplicates, symmetry)
  /// runs under EASCHED_AUDIT / Debug.
  WeightedGraph(std::vector<double> weights, std::vector<std::size_t> offsets,
                std::vector<std::uint32_t> adj);

  std::size_t size() const { return weights_.size(); }
  double weight(std::size_t v) const { return weights_[v]; }
  std::span<const std::uint32_t> neighbors(std::size_t v) const {
    return {adj_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  std::size_t degree(std::size_t v) const {
    return offsets_[v + 1] - offsets_[v];
  }
  std::size_t num_edges() const { return adj_.size() / 2; }

  /// O(min(deg(u), deg(v))) CSR row probe (tests and audits only — not a
  /// hot-path operation on this representation).
  bool has_edge(std::size_t u, std::size_t v) const;

  bool is_independent(const std::vector<std::size_t>& vertices) const;
  double total_weight(const std::vector<std::size_t>& vertices) const;

 private:
  std::vector<double> weights_;
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> adj_;
};

/// Accumulates an edge list in O(1) per edge and builds the CSR in one
/// counting-sort pass. Range and self-loop violations throw at add_edge
/// (O(1) checks); duplicate-edge detection is part of build()'s bulk audit —
/// the per-insertion O(deg) membership probe the old adjacency-list
/// representation paid (quadratic on dense rows, and in Release) is gone.
class WeightedGraphBuilder {
 public:
  explicit WeightedGraphBuilder(std::vector<double> weights);

  void add_edge(std::size_t u, std::size_t v);
  std::size_t num_edges() const { return edges_.size(); }
  std::size_t size() const { return weights_.size(); }

  /// Builds the CSR graph. The builder is left empty (weights moved out).
  WeightedGraph build();

 private:
  std::vector<double> weights_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
};

struct MwisSolution {
  std::vector<std::size_t> vertices;
  double total_weight = 0.0;
};

/// Executable independence contract: throws InvariantError naming the first
/// adjacent (or duplicate / out-of-range) pair when `vertices` is not an
/// independent set in `g`. Solvers call this as a postcondition under
/// EASCHED_AUDIT; tests call it directly to prove the contract fires.
void check_independent(const WeightedGraph& g,
                       const std::vector<std::size_t>& vertices);

/// Reusable scratch for the heap-driven gwmin/gwmin2: the selection heap,
/// incremental alive-degrees, and the per-selection doomed list. Callers
/// solving a stream of instances keep one alive so steady-state solves are
/// allocation-free beyond the returned solution.
struct MwisWorkspace {
  IndexedScoreHeap<TieOrder::kLowIndexWins> heap;
  std::vector<std::uint32_t> degree;
  std::vector<std::uint32_t> doomed;
  /// Survivors adjacent to this round's kills, deduplicated — each gets one
  /// heap re-key with its final post-round score.
  util::EpochMarker touched;
  std::vector<std::uint32_t> touch_list;
};

/// GWMIN of Sakai et al. [22]: take v maximising w(v)/(d(v)+1) among the
/// surviving vertices, add it, delete N[v]; repeat. Guarantees total weight
/// >= sum_v w(v)/(d(v)+1). Heap-driven O((n+m) log n); selections
/// (including score ties, broken toward the lowest vertex index) are
/// identical to the linear-scan specification in tests/.
MwisSolution gwmin(const WeightedGraph& g);
MwisSolution gwmin(const WeightedGraph& g, MwisWorkspace& ws);
/// Out-parameter form: with a warmed workspace and a reused `out`, a solve
/// performs no heap allocation at all (pinned by the counting-allocator
/// test in test_graph_diff).
void gwmin(const WeightedGraph& g, MwisWorkspace& ws, MwisSolution& out);

/// GWMIN2 of Sakai et al.: take v maximising w(v) / (w(v) + sum of N(v)
/// weights); stronger when weights are highly skewed. Same heap engine and
/// tie-break contract as gwmin.
MwisSolution gwmin2(const WeightedGraph& g);
MwisSolution gwmin2(const WeightedGraph& g, MwisWorkspace& ws);
void gwmin2(const WeightedGraph& g, MwisWorkspace& ws, MwisSolution& out);

/// Exact MWIS via branch-and-bound (branch on max-degree vertex; bound by
/// the remaining weight sum). Exponential worst case; `max_vertices` guards
/// against misuse.
MwisSolution exact_mwis(const WeightedGraph& g, std::size_t max_vertices = 48);

}  // namespace eas::graph
