#include "core/conflict_graph.hpp"

#include <algorithm>

#include "core/energy_model.hpp"
#include "util/check.hpp"
#include "util/epoch_marker.hpp"

namespace eas::core {

double ConflictGraph::selection_weight(
    const std::vector<std::uint32_t>& selected) const {
  thread_local util::EpochMarker in;
  in.begin(nodes.size());
  double total = 0.0;
  for (std::uint32_t v : selected) {
    EAS_REQUIRE_MSG(v < nodes.size(), "selected node out of range");
    EAS_REQUIRE_MSG(!in.marked(v), "node " << v << " selected twice");
    in.mark(v);
    total += nodes[v].weight;
  }
  for (std::uint32_t v : selected) {
    for (std::uint32_t u : neighbors(v)) {
      EAS_REQUIRE_MSG(!in.marked(u),
                      "selection is not independent: " << v << " ~ " << u);
    }
  }
  return total;
}

graph::WeightedGraph ConflictGraph::to_weighted_graph() const {
  // Hand the existing CSR straight to the graph layer — no per-vertex
  // vector round-trip, no re-insertion of m edges through a builder. The
  // WeightedGraph constructor audits the structure in bulk under
  // EASCHED_AUDIT.
  std::vector<double> weights;
  weights.reserve(nodes.size());
  for (const auto& n : nodes) weights.push_back(n.weight);
  return graph::WeightedGraph(std::move(weights), adj_offsets, adj_data);
}

namespace {

/// Invokes `fn(u, v)` exactly once per conflicting node pair. Conflicts are
/// found through per-request buckets; a pair sharing *both* endpoints (the
/// same (i,j) on two disks) appears in two buckets and is emitted only from
/// bucket i, so no hashed dedup is needed.
template <typename Fn>
void for_each_conflict(const ConflictGraph& g,
                       const std::vector<std::vector<std::uint32_t>>& bucket,
                       Fn fn) {
  for (std::uint32_t r = 0; r < bucket.size(); ++r) {
    const auto& members = bucket[r];
    for (std::size_t a = 0; a < members.size(); ++a) {
      const SavingNode& u = g.nodes[members[a]];
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        const SavingNode& v = g.nodes[members[b]];
        if (u.i != v.i && u.k == v.k) continue;  // compatible
        if (u.i == v.i && u.j == v.j && u.j == r) continue;  // seen at bucket i
        fn(members[a], members[b]);
      }
    }
  }
}

/// Grows `vecs` to `n` outer entries and clears each inner vector without
/// releasing its capacity — the reuse primitive behind the workspace.
void reset_nested(std::vector<std::vector<std::uint32_t>>& vecs,
                  std::size_t n) {
  if (vecs.size() < n) vecs.resize(n);
  for (auto& v : vecs) v.clear();
}

void fill_buckets(const ConflictGraph& g, std::size_t num_requests,
                  std::vector<std::vector<std::uint32_t>>& bucket) {
  reset_nested(bucket, num_requests);
  for (std::uint32_t v = 0; v < g.nodes.size(); ++v) {
    bucket[g.nodes[v].i].push_back(v);
    bucket[g.nodes[v].j].push_back(v);
  }
}

}  // namespace

void list_requests_by_stored_disk(
    const trace::Trace& trace, const placement::PlacementMap& placement,
    std::vector<std::vector<std::uint32_t>>& lists) {
  reset_nested(lists, placement.num_disks());
  for (std::uint32_t i = 0; i < trace.size(); ++i) {
    for (DiskId k : placement.locations(trace[i].data)) {
      lists[k].push_back(i);  // trace is time-sorted, so lists are too
    }
  }
}

ConflictGraph build_conflict_graph(const trace::Trace& trace,
                                   const placement::PlacementMap& placement,
                                   const disk::DiskPowerParams& power,
                                   const ConflictGraphOptions& options) {
  ConflictGraphWorkspace ws;
  return build_conflict_graph(trace, placement, power, options, ws);
}

ConflictGraph build_conflict_graph(const trace::Trace& trace,
                                   const placement::PlacementMap& placement,
                                   const disk::DiskPowerParams& power,
                                   const ConflictGraphOptions& options,
                                   ConflictGraphWorkspace& ws) {
  EAS_REQUIRE_MSG(options.successor_horizon >= 1, "horizon must be >= 1");
  ConflictGraph g;

  auto& on_disk = ws.on_disk;
  list_requests_by_stored_disk(trace, placement, on_disk);

  // Step 1: nodes for every in-window candidate pair within the horizon.
  // The node count is data-dependent, so the workspace remembers the last
  // call's count as the reservation estimate: repeated builds over
  // similar-sized cells (the sweep and scheduler hot path) size the vector
  // in one allocation instead of a geometric growth chain. (A counting
  // pre-pass and the total_entries * horizon bound were both measurably
  // slower: the former re-walks every candidate pair, the latter cold-faults
  // megabytes it never uses.)
  g.nodes.reserve(ws.last_node_count);
  const double window = power.saving_window_seconds();
  for (DiskId k = 0; k < placement.num_disks(); ++k) {
    const auto& list = on_disk[k];
    for (std::size_t p = 0; p < list.size(); ++p) {
      const std::uint32_t i = list[p];
      for (std::size_t h = 1;
           h <= options.successor_horizon && p + h < list.size(); ++h) {
        const std::uint32_t j = list[p + h];
        const double dt = trace[j].time - trace[i].time;
        if (dt >= window) break;  // later candidates are even farther
        const double w =
            pairwise_energy_saving(trace[i].time, trace[j].time, power);
        if (w > 0.0) g.nodes.push_back(SavingNode{i, j, k, w});
      }
    }
  }

  ws.last_node_count = g.nodes.size();

  // Step 2: CSR adjacency in two passes over the conflict pairs — count
  // degrees, then place. Each conflicting pair is visited exactly once.
  fill_buckets(g, trace.size(), ws.bucket);
  const auto& bucket = ws.bucket;
  g.adj_offsets.assign(g.nodes.size() + 1, 0);
  for_each_conflict(g, bucket, [&](std::uint32_t u, std::uint32_t v) {
    ++g.adj_offsets[u + 1];
    ++g.adj_offsets[v + 1];
  });
  for (std::size_t v = 0; v < g.nodes.size(); ++v) {
    g.adj_offsets[v + 1] += g.adj_offsets[v];
  }
  g.adj_data.resize(g.adj_offsets.back());
  ws.cursor.assign(g.adj_offsets.begin(), g.adj_offsets.end() - 1);
  auto& cursor = ws.cursor;
  for_each_conflict(g, bucket, [&](std::uint32_t u, std::uint32_t v) {
    g.adj_data[cursor[u]++] = v;
    g.adj_data[cursor[v]++] = u;
  });
  return g;
}

namespace {

/// Hot selection loop ([[hotpath]]: no allocation, no throw). Pops the
/// (score, highest-id) maximum — the exact order the historical lazy
/// pair-heap produced, since a live node's freshest entry always dominated
/// its stale ones — deletes its closed neighbourhood from the heap, then
/// re-keys each survivor adjacent to a kill. Heap membership doubles as the
/// alive set; the two-phase kill keeps the historical update order: all of
/// N[v] leaves the heap before any survivor is re-scored, and degree /
/// nbr_weight decrements land in the same doomed-major, CSR-minor order as
/// before, so every score is the bit-identical double.
void gwmin_select_loop(const ConflictGraph& g, bool use_gwmin2,
                       GwminWorkspace& ws,
                       std::vector<std::uint32_t>& selected) {
  auto& heap = ws.heap;
  auto& doomed = ws.doomed;
  auto& degree = ws.degree;
  const auto& weight = ws.weight;
  auto& nbr_weight = ws.nbr_weight;
  auto& touch_list = ws.touch_list;
  while (!heap.empty()) {
    const auto top = heap.top();
    heap.pop_top();
    selected.push_back(top.v);

    doomed.clear();
    doomed.push_back(top.v);
    for (const std::uint32_t u : g.neighbors(top.v)) {
      if (heap.contains(u)) {
        heap.remove(u);
        doomed.push_back(u);
      }
    }
    // Apply every degree / nbr_weight decrement first (same doomed-major,
    // CSR-minor order as always — the nbr_weight rounding sequence is
    // pinned), then re-key each touched survivor once with its final
    // post-round score. A survivor adjacent to several kills would
    // otherwise pay one sift-up per kill for intermediate keys nothing
    // ever reads.
    ws.touched.begin(g.size());
    touch_list.clear();
    for (const std::uint32_t u : doomed) {
      const double uw = weight[u];
      for (const std::uint32_t w : g.neighbors(u)) {
        if (!heap.contains(w)) continue;
        --degree[w];
        if (use_gwmin2) nbr_weight[w] -= uw;
        if (!ws.touched.marked(w)) {
          ws.touched.mark(w);
          touch_list.push_back(w);
        }
      }
    }
    for (const std::uint32_t w : touch_list) {
      double s;
      if (use_gwmin2) {
        const double denom = weight[w] + nbr_weight[w];
        s = denom == 0.0 ? 1.0 : weight[w] / denom;
      } else {
        s = weight[w] / static_cast<double>(degree[w] + 1);
      }
      heap.increase(w, s);
    }
  }
}

}  // namespace

std::vector<std::uint32_t> solve_gwmin(const ConflictGraph& g,
                                       bool use_gwmin2) {
  GwminWorkspace ws;
  return solve_gwmin(g, use_gwmin2, ws);
}

std::vector<std::uint32_t> solve_gwmin(const ConflictGraph& g, bool use_gwmin2,
                                       GwminWorkspace& ws) {
  std::vector<std::uint32_t> selected;
  solve_gwmin(g, use_gwmin2, ws, selected);
  return selected;
}

void solve_gwmin(const ConflictGraph& g, bool use_gwmin2, GwminWorkspace& ws,
                 std::vector<std::uint32_t>& selected) {
  selected.clear();
  const auto n = static_cast<std::uint32_t>(g.size());
  ws.degree.resize(n);
  ws.weight.resize(n);
  auto& degree = ws.degree;
  auto& weight = ws.weight;
  auto& nbr_weight = ws.nbr_weight;
  for (std::uint32_t v = 0; v < n; ++v) weight[v] = g.nodes[v].weight;
  if (use_gwmin2) nbr_weight.assign(n, 0.0);
  std::size_t max_deg = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.degree(v));
    max_deg = std::max(max_deg, g.degree(v));
    if (use_gwmin2) {
      for (std::uint32_t u : g.neighbors(v)) nbr_weight[v] += weight[u];
    }
  }
  ws.doomed.clear();
  ws.doomed.reserve(max_deg + 1);

  ws.heap.assign(n, [&](std::uint32_t v) {
    if (use_gwmin2) {
      const double denom = weight[v] + nbr_weight[v];
      return denom == 0.0 ? 1.0 : weight[v] / denom;
    }
    return weight[v] / static_cast<double>(degree[v] + 1);
  });

  gwmin_select_loop(g, use_gwmin2, ws, selected);
  std::sort(selected.begin(), selected.end());
}

}  // namespace eas::core
