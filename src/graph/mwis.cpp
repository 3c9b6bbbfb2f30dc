#include "graph/mwis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// Hot selection loop shared by the heap-driven greedies ([[hotpath]]: no
/// allocation, no throw): pop the (score, lowest-index) maximum, delete its
/// closed neighbourhood from the heap, apply `dec(u)` per (kill, surviving
/// neighbour) incidence — the incremental bookkeeping, in doomed-major CSR
/// order — then re-key each touched survivor once via `rescore(u)`, its
/// final post-round score (scores only grow as neighbours die, so every
/// re-key is an increase). The touched-set dedup matters twice over: a
/// survivor adjacent to several kills pays one sift-up instead of several,
/// and GWMIN2's O(deg) fresh rescan runs once per survivor per round.
/// Phase order matters: all kills land before any re-key, so `rescore`
/// sees the post-kill alive set via heap.contains().
template <typename DecFn, typename RescoreFn>
void mwis_select_loop(const WeightedGraph& g, MwisWorkspace& ws, DecFn dec,
                      RescoreFn rescore, MwisSolution& sol) {
  auto& heap = ws.heap;
  auto& doomed = ws.doomed;
  auto& touch_list = ws.touch_list;
  while (!heap.empty()) {
    const auto top = heap.top();
    heap.pop_top();
    sol.vertices.push_back(top.v);
    sol.total_weight += g.weight(top.v);

    doomed.clear();
    doomed.push_back(top.v);
    for (const std::uint32_t u : g.neighbors(top.v)) {
      if (heap.contains(u)) {
        heap.remove(u);
        doomed.push_back(u);
      }
    }
    ws.touched.begin(g.size());
    touch_list.clear();
    for (const std::uint32_t dead : doomed) {
      for (const std::uint32_t u : g.neighbors(dead)) {
        if (!heap.contains(u)) continue;
        dec(u);
        if (!ws.touched.marked(u)) {
          ws.touched.mark(u);
          touch_list.push_back(u);
        }
      }
    }
    for (const std::uint32_t u : touch_list) heap.increase(u, rescore(u));
  }
}

/// Common prologue/epilogue of the heap solvers: size the workspace, run
/// the selection loop, canonicalise the solution order.
template <typename InitScoreFn, typename DecFn, typename RescoreFn>
void mwis_heap_solve(const WeightedGraph& g, MwisWorkspace& ws,
                     InitScoreFn init_score, DecFn dec, RescoreFn rescore,
                     MwisSolution& out) {
  out.vertices.clear();
  out.total_weight = 0.0;
  const auto n = static_cast<std::uint32_t>(g.size());
  std::size_t max_deg = 0;
  for (std::uint32_t v = 0; v < n; ++v) max_deg = std::max(max_deg, g.degree(v));
  ws.doomed.clear();
  ws.doomed.reserve(max_deg + 1);
  ws.heap.assign(n, init_score);
  mwis_select_loop(g, ws, dec, rescore, out);
  std::sort(out.vertices.begin(), out.vertices.end());
  if constexpr (audit_enabled()) check_independent(g, out.vertices);
}

}  // namespace

void gwmin(const WeightedGraph& g, MwisWorkspace& ws, MwisSolution& out) {
  const auto n = static_cast<std::uint32_t>(g.size());
  ws.degree.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    ws.degree[v] = static_cast<std::uint32_t>(g.degree(v));
  }
  auto score = [&g, &ws](std::uint32_t v) {
    return g.weight(v) / static_cast<double>(ws.degree[v] + 1);
  };
  // Alive-degrees drop by one per adjacent kill — identical integer
  // sequence to the reference scan's alive_degree bookkeeping, so scores
  // are bit-identical doubles.
  auto dec = [&ws](std::uint32_t u) { --ws.degree[u]; };
  mwis_heap_solve(g, ws, score, dec, score, out);
}

void gwmin2(const WeightedGraph& g, MwisWorkspace& ws, MwisSolution& out) {
  // GWMIN2 re-scores a touched survivor by summing its *currently alive*
  // neighbours afresh, in CSR row order — exactly the sum the reference
  // scan computes (same subset, same order, hence the same double), rather
  // than an incrementally-maintained total whose rounding would drift from
  // the specification.
  auto score = [&g, &ws](std::uint32_t v) {
    double nbr = 0.0;
    for (const std::uint32_t u : g.neighbors(v)) {
      if (ws.heap.contains(u)) nbr += g.weight(u);
    }
    const double denom = g.weight(v) + nbr;
    // An isolated zero-weight vertex is harmless to take: score 1.
    return denom == 0.0 ? 1.0 : g.weight(v) / denom;
  };
  // Initial scores must not consult the half-built heap: all vertices are
  // alive before the first selection, so sum entire rows.
  auto init_score = [&g](std::uint32_t v) {
    double nbr = 0.0;
    for (const std::uint32_t u : g.neighbors(v)) nbr += g.weight(u);
    const double denom = g.weight(v) + nbr;
    return denom == 0.0 ? 1.0 : g.weight(v) / denom;
  };
  auto no_dec = [](std::uint32_t) {};
  mwis_heap_solve(g, ws, init_score, no_dec, score, out);
}

MwisSolution gwmin(const WeightedGraph& g, MwisWorkspace& ws) {
  MwisSolution sol;
  gwmin(g, ws, sol);
  return sol;
}

MwisSolution gwmin(const WeightedGraph& g) {
  MwisWorkspace ws;
  return gwmin(g, ws);
}

MwisSolution gwmin2(const WeightedGraph& g, MwisWorkspace& ws) {
  MwisSolution sol;
  gwmin2(g, ws, sol);
  return sol;
}

MwisSolution gwmin2(const WeightedGraph& g) {
  MwisWorkspace ws;
  return gwmin2(g, ws);
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
