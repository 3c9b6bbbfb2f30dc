// Maximum-weight independent set: the combinatorial core of offline
// scheduling (§3.1).
//
// Theorem 1 reduces the offline energy-saving problem to MWIS on the
// conflict graph over X(i,j,k) nodes. The paper solves it with GMIN, the
// greedy of Sakai, Togasaki & Yamazaki [22]. The scheduler's GWMIN/GWMIN2
// is core::solve_gwmin_in_place, which runs over the conflict graph's
// implicit rows (core/conflict_graph.hpp) and never builds an adjacency.
// This header holds what remains for small explicit instances:
//  * WeightedGraph — an explicit CSR graph; ConflictGraph::to_weighted_graph
//    materialises one;
//  * exact_mwis — branch-and-bound, for the kExact algorithm, the paper
//    walkthrough and optimality-gap ablations on small instances.
// The linear-scan GWMIN/GWMIN2 specifications live in
// tests/reference_solvers.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

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
/// independent set in `g`. exact_mwis calls this as a postcondition under
/// EASCHED_AUDIT; tests call it directly to prove the contract fires.
void check_independent(const WeightedGraph& g,
                       const std::vector<std::size_t>& vertices);

/// Exact MWIS via branch-and-bound (branch on max-degree vertex; bound by
/// the remaining weight sum). Exponential worst case; `max_vertices` guards
/// against misuse.
MwisSolution exact_mwis(const WeightedGraph& g, std::size_t max_vertices = 48);

}  // namespace eas::graph
