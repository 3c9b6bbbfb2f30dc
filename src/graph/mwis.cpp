#include "graph/mwis.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"
#include "util/epoch_marker.hpp"

namespace eas::graph {

namespace {

void check_weights(const std::vector<double>& weights) {
  EAS_CHECK_MSG(weights.size() < 0xffffffffu,
                "graph too large for 32-bit vertex ids");
  for (double w : weights) {
    EAS_CHECK_MSG(std::isfinite(w) && w >= 0.0,
                  "vertex weights must be finite and non-negative");
  }
}

}  // namespace

WeightedGraph::WeightedGraph(std::vector<double> weights)
    : weights_(std::move(weights)), offsets_(weights_.size() + 1, 0) {
  check_weights(weights_);
}

WeightedGraph::WeightedGraph(std::vector<double> weights,
                             std::vector<std::size_t> offsets,
                             std::vector<std::uint32_t> adj)
    : weights_(std::move(weights)),
      offsets_(std::move(offsets)),
      adj_(std::move(adj)) {
  check_weights(weights_);
  EAS_CHECK_MSG(offsets_.size() == weights_.size() + 1,
                "CSR offsets must have size n+1 (n=" << weights_.size()
                                                     << ")");
  EAS_CHECK_MSG(offsets_.front() == 0 && offsets_.back() == adj_.size(),
                "CSR offsets must span the adjacency array exactly");
  if constexpr (audit_enabled()) {
    // Bulk structural audit, once per construction: this replaces the old
    // per-insertion O(deg) duplicate probe (which ran even in Release).
    util::EpochMarker row;
    const std::size_t n = size();
    for (std::size_t v = 0; v < n; ++v) {
      EAS_AUDIT_MSG(offsets_[v] <= offsets_[v + 1],
                    "CSR offsets not monotone at vertex " << v);
      row.begin(n);
      for (std::uint32_t u : neighbors(v)) {
        EAS_AUDIT_MSG(u < n, "neighbour " << u << " of vertex " << v
                                          << " out of range (n=" << n << ")");
        EAS_AUDIT_MSG(u != v, "self-loop on vertex " << v);
        EAS_AUDIT_MSG(!row.marked(u), "duplicate edge " << v << "-" << u);
        row.mark(u);
        EAS_AUDIT_MSG(has_edge(u, v),
                      "asymmetric adjacency: " << v << " lists " << u
                                               << " but not vice versa");
      }
    }
  }
}

bool WeightedGraph::has_edge(std::size_t u, std::size_t v) const {
  if (degree(v) < degree(u)) std::swap(u, v);
  const auto row = neighbors(u);
  return std::find(row.begin(), row.end(), static_cast<std::uint32_t>(v)) !=
         row.end();
}

bool WeightedGraph::is_independent(
    const std::vector<std::size_t>& vertices) const {
  thread_local util::EpochMarker in_set;
  in_set.begin(size());
  for (std::size_t v : vertices) {
    if (v >= size() || in_set.marked(v)) return false;
    in_set.mark(v);
  }
  for (std::size_t v : vertices) {
    for (std::uint32_t u : neighbors(v)) {
      if (in_set.marked(u)) return false;
    }
  }
  return true;
}

double WeightedGraph::total_weight(
    const std::vector<std::size_t>& vertices) const {
  double w = 0.0;
  for (std::size_t v : vertices) w += weights_[v];
  return w;
}

WeightedGraphBuilder::WeightedGraphBuilder(std::vector<double> weights)
    : weights_(std::move(weights)) {
  check_weights(weights_);
}

void WeightedGraphBuilder::add_edge(std::size_t u, std::size_t v) {
  EAS_CHECK_MSG(u < size() && v < size(), "edge endpoint out of range");
  EAS_CHECK_MSG(u != v, "self-loop on vertex " << u);
  edges_.emplace_back(static_cast<std::uint32_t>(u),
                      static_cast<std::uint32_t>(v));
}

WeightedGraph WeightedGraphBuilder::build() {
  const std::size_t n = weights_.size();
  // Counting sort of the edge list into CSR: degree count, prefix sum,
  // placement. O(n + m) with three sequential passes.
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<std::uint32_t> adj(2 * edges_.size());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges_) {
    adj[cursor[u]++] = v;
    adj[cursor[v]++] = u;
  }
  edges_.clear();
  // The CSR constructor's audit validates the bulk invariants (including
  // the duplicate-edge check the old add_edge probed per insertion).
  return WeightedGraph(std::move(weights_), std::move(offsets),
                       std::move(adj));
}

void check_independent(const WeightedGraph& g,
                       const std::vector<std::size_t>& vertices) {
  thread_local util::EpochMarker in_set;
  in_set.begin(g.size());
  for (std::size_t v : vertices) {
    EAS_ENSURE_MSG(v < g.size(), "solution vertex " << v
                                                    << " out of range (n="
                                                    << g.size() << ")");
    EAS_ENSURE_MSG(!in_set.marked(v),
                   "vertex " << v << " appears twice in solution");
    in_set.mark(v);
  }
  for (std::size_t v : vertices) {
    for (std::uint32_t u : g.neighbors(v)) {
      EAS_ENSURE_MSG(!in_set.marked(u), "solution is not independent: edge "
                                            << v << " ~ " << u
                                            << " has both endpoints selected");
    }
  }
}

namespace {

struct ExactMwisState {
  const WeightedGraph* g;
  std::vector<bool> alive;
  std::vector<std::size_t> current;
  double current_weight = 0.0;
  double best_weight = -1.0;
  std::vector<std::size_t> best;

  void search(double remaining_weight) {
    if (current_weight + remaining_weight <= best_weight) return;  // bound

    // Find the alive vertex with maximum alive-degree.
    std::size_t pivot = g->size();
    std::size_t pivot_degree = 0;
    double alive_weight = 0.0;
    for (std::size_t v = 0; v < g->size(); ++v) {
      if (!alive[v]) continue;
      alive_weight += g->weight(v);
      std::size_t d = 0;
      for (std::uint32_t u : g->neighbors(v)) {
        if (alive[u]) ++d;
      }
      if (pivot == g->size() || d > pivot_degree) {
        pivot = v;
        pivot_degree = d;
      }
    }
    if (pivot == g->size()) {  // graph empty: record leaf
      if (current_weight > best_weight) {
        best_weight = current_weight;
        best = current;
      }
      return;
    }
    if (current_weight + alive_weight <= best_weight) return;

    if (pivot_degree == 0) {
      // All survivors are isolated: take them all and finish this branch.
      double gain = 0.0;
      std::vector<std::size_t> taken;
      for (std::size_t v = 0; v < g->size(); ++v) {
        if (alive[v]) {
          gain += g->weight(v);
          taken.push_back(v);
        }
      }
      if (current_weight + gain > best_weight) {
        best_weight = current_weight + gain;
        best = current;
        best.insert(best.end(), taken.begin(), taken.end());
      }
      return;
    }

    // Branch 1: include pivot (delete N[pivot]).
    std::vector<std::size_t> killed;
    auto kill = [&](std::size_t v) {
      if (alive[v]) {
        alive[v] = false;
        killed.push_back(v);
      }
    };
    kill(pivot);
    for (std::uint32_t u : g->neighbors(pivot)) kill(u);
    current.push_back(pivot);
    current_weight += g->weight(pivot);
    double removed_weight = 0.0;
    for (std::size_t v : killed) removed_weight += g->weight(v);
    search(alive_weight - removed_weight);
    current.pop_back();
    current_weight -= g->weight(pivot);
    for (std::size_t v : killed) alive[v] = true;

    // Branch 2: exclude pivot.
    alive[pivot] = false;
    search(alive_weight - g->weight(pivot));
    alive[pivot] = true;
  }
};

}  // namespace

MwisSolution exact_mwis(const WeightedGraph& g, std::size_t max_vertices) {
  EAS_REQUIRE_MSG(g.size() <= max_vertices,
                "exact_mwis instance too large (" << g.size() << " > "
                                                  << max_vertices << ")");
  ExactMwisState st;
  st.g = &g;
  st.alive.assign(g.size(), true);
  double total = 0.0;
  for (std::size_t v = 0; v < g.size(); ++v) total += g.weight(v);
  st.search(total);

  MwisSolution sol;
  sol.vertices = st.best;
  std::sort(sol.vertices.begin(), sol.vertices.end());
  sol.total_weight = std::max(0.0, st.best_weight);
  if constexpr (audit_enabled()) check_independent(g, sol.vertices);
  return sol;
}

}  // namespace eas::graph
