#include "core/conflict_graph.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "core/energy_model.hpp"
#include "util/check.hpp"
#include "util/epoch_marker.hpp"

namespace eas::core {

double ConflictGraph::selection_weight(
    const std::vector<std::uint32_t>& selected, util::EpochMarker& in) const {
  in.begin(size());
  double total = 0.0;
  for (std::uint32_t v : selected) {
    EAS_REQUIRE_MSG(v < size(), "selected node out of range");
    EAS_REQUIRE_MSG(!in.marked(v), "node " << v << " selected twice");
    in.mark(v);
    total += weight[v];
  }
  for (std::uint32_t v : selected) {
    for_each_neighbor(v, [&](std::uint32_t u) {
      EAS_REQUIRE_MSG(!in.marked(u),
                      "selection is not independent: " << v << " ~ " << u);
    });
  }
  return total;
}

double ConflictGraph::selection_weight(
    const std::vector<std::uint32_t>& selected) const {
  util::EpochMarker in;
  return selection_weight(selected, in);
}

namespace {

/// Both readers of `degrees` check it first: an earlier
/// solve_gwmin_in_place released it, and indexing the empty array would
/// read past its end.
void require_degrees(const ConflictGraph& g) {
  EAS_REQUIRE_MSG(g.degrees.size() == g.size(),
                  "conflict graph degrees were consumed by an earlier "
                  "solve_gwmin_in_place; solve a copy of the graph to keep "
                  "them");
}

}  // namespace

graph::WeightedGraph ConflictGraph::to_weighted_graph() const {
  require_degrees(*this);
  // Rows are written in for_each_neighbor order straight into the CSR
  // arrays the graph layer adopts; the WeightedGraph constructor audits the
  // structure in bulk under EASCHED_AUDIT.
  std::vector<std::size_t> offsets(size() + 1, 0);
  for (std::uint32_t v = 0; v < size(); ++v) {
    offsets[v + 1] = offsets[v] + degrees[v];
  }
  std::vector<std::uint32_t> adj;
  adj.reserve(offsets.back());
  for (std::uint32_t v = 0; v < size(); ++v) {
    for_each_neighbor(v, [&](std::uint32_t u) { adj.push_back(u); });
  }
  return graph::WeightedGraph(weight, std::move(offsets), std::move(adj));
}

namespace {

/// Grows `vecs` to `n` outer entries and clears each inner vector without
/// releasing its capacity — the reuse primitive behind the workspace.
void reset_nested(std::vector<std::vector<std::uint32_t>>& vecs,
                  std::size_t n) {
  if (vecs.size() < n) vecs.resize(n);
  for (auto& v : vecs) v.clear();
}

/// Build Step 3 ([[hotpath]]: its scratch lives in `ws`): every node's
/// conflict degree in closed form from per-row role counts, without walking
/// a neighbour. Row r's members are "out" (first == r) or "in"
/// (second == r), counted overall and per replica slot of r; a member's
/// slot is the one whose disk id range holds it (every member lies on one
/// of r's disks). For node v = (i, j, k), for_each_neighbor yields every
/// other out-member of row i, row i's in-members off disk k, and row j's
/// members off disk k except the nodes with v's (i, j) on another disk,
/// which row i already yielded (DESIGN.md §12):
///   deg(v) = (out_i - 1) + (in_i - in_i[k])
///          + (out_j - out_j[k]) + (in_j - in_j[k]) - (pair(i, j) - 1),
/// where pair(i, j) counts row j's in-members whose first request is i.
/// Row i adds the first line, row j the second. Returns the degree sum.
std::size_t count_degrees(ConflictGraph& g, const trace::Trace& trace,
                          const placement::PlacementMap& placement,
                          ConflictGraphWorkspace& ws) {
  auto& slots = ws.slots;
  auto& pair = ws.pair_count;
  pair.assign(trace.size(), 0);
  g.degrees.assign(g.size(), 0);
  std::size_t degree_sum = 0;
  for (std::uint32_t r = 0; r < trace.size(); ++r) {
    const std::uint32_t begin = g.inc_offsets[r];
    const std::uint32_t end = g.inc_offsets[r + 1];
    if (begin == end) continue;
    const auto& locs = placement.locations(trace[r].data);
    slots.assign(locs.size(), {});
    for (std::size_t s = 0; s < locs.size(); ++s) {
      slots[s].lo = g.disk_begin[locs[s]];
      slots[s].span = g.disk_begin[locs[s] + 1] - slots[s].lo;
    }
    auto slot_of = [&slots](std::uint32_t u) -> auto& {
      std::size_t s = 0;
      while (u - slots[s].lo >= slots[s].span) ++s;
      return slots[s];
    };
    std::uint32_t out = 0;
    std::uint32_t in = 0;
    for (std::uint32_t p = begin; p < end; ++p) {
      const std::uint32_t u = g.inc_nodes[p];
      auto& slot = slot_of(u);
      if (g.first[u] == r) {
        ++out;
        ++slot.out;
      } else {
        ++in;
        ++slot.in;
        ++pair[g.first[u]];
      }
    }
    for (std::uint32_t p = begin; p < end; ++p) {
      const std::uint32_t u = g.inc_nodes[p];
      const auto& slot = slot_of(u);
      const std::uint32_t d =
          g.first[u] == r
              ? (out - 1) + (in - slot.in)
              : (out - slot.out) + (in - slot.in) - (pair[g.first[u]] - 1);
      g.degrees[u] += d;
      degree_sum += d;
    }
    for (std::uint32_t p = begin; p < end; ++p) {
      const std::uint32_t u = g.inc_nodes[p];
      if (g.first[u] != r) pair[g.first[u]] = 0;
    }
  }
  return degree_sum;
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

  // Step 1: nodes for every in-window candidate pair within the horizon,
  // disk-major, so each disk's nodes form one id range. The node count is
  // data-dependent, so the workspace remembers the last call's count as
  // the reservation estimate: repeated builds over similar-sized cells (the
  // sweep and scheduler hot path) size the arrays in one allocation each
  // instead of a geometric growth chain. (A counting pre-pass and the
  // total_entries * horizon bound were both measurably slower: the former
  // re-walks every candidate pair, the latter cold-faults megabytes it
  // never uses; neither would lower the peak, which is the solve's.)
  g.first.reserve(ws.last_node_count);
  g.second.reserve(ws.last_node_count);
  g.weight.reserve(ws.last_node_count);
  g.disk_begin.reserve(placement.num_disks() + 1);
  const double window = power.saving_window_seconds();
  for (DiskId k = 0; k < placement.num_disks(); ++k) {
    g.disk_begin.push_back(static_cast<std::uint32_t>(g.size()));
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
        if (w > 0.0) {
          g.first.push_back(i);
          g.second.push_back(j);
          g.weight.push_back(w);
        }
      }
    }
  }
  const std::size_t n = g.size();
  // Node ids, incidence positions and offsets are all 32-bit.
  EAS_REQUIRE_MSG(2 * n <= std::numeric_limits<std::uint32_t>::max(),
                  "conflict graph too large: " << n << " nodes");
  g.disk_begin.push_back(static_cast<std::uint32_t>(n));
  ws.last_node_count = n;

  // Step 2: the incidence CSR over requests, by counting sort. Counts go
  // one slot to the right of their row start (inc_offsets[r + 2]), so after
  // the prefix sum inc_offsets[r + 1] is row r's start and serves as its
  // fill cursor; filling leaves it at row r's end, which is row r+1's
  // start, and the spare last slot is dropped. Nodes are placed in
  // ascending id, so every row comes out sorted.
  auto& off = g.inc_offsets;
  off.assign(trace.size() + 2, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    ++off[g.first[v] + 2];
    ++off[g.second[v] + 2];
  }
  for (std::size_t r = 2; r < off.size(); ++r) off[r] += off[r - 1];
  g.inc_nodes.resize(2 * n);
  for (std::uint32_t v = 0; v < n; ++v) {
    g.inc_nodes[off[g.first[v] + 1]++] = v;
    g.inc_nodes[off[g.second[v] + 1]++] = v;
  }
  off.pop_back();

  // Step 3: degrees and the edge count, from per-row counts.
  g.edge_count = count_degrees(g, trace, placement, ws) / 2;
  return g;
}

namespace {

/// GWMIN's row walker ([[hotpath]]): calls fn(u) for every neighbour u of v
/// still in the heap, with for_each_neighbor's filter and order, and
/// compacts each row it scans. A scan swaps every member still live after
/// fn into the row's live prefix, keeping their relative order, and parks
/// the dead ones behind the new row_end, so no later walk scans them. v is
/// never live here (it left the heap before its walk), which makes the
/// liveness test its u == v skip; and in row j a member with v's first
/// request has v's (i, j), so the pair skip is the first-request test.
template <typename Fn>
void walk_live_neighbors(ConflictGraph& g, GwminWorkspace& ws,
                         std::uint32_t v, Fn&& fn) {
  const auto& heap = ws.heap;
  // A local view, so pushes to the callers' vectors cannot force a reload
  // of the row array's address.
  const std::span<std::uint32_t> inc(g.inc_nodes);
  auto& row_end = ws.row_end;
  const std::uint32_t xi = g.first[v];
  const std::uint32_t xj = g.second[v];
  const DiskId k = g.disk_of(v);
  const std::uint32_t lo = g.disk_begin[k];
  const std::uint32_t span = g.disk_begin[k + 1] - lo;
  auto scan = [&](std::uint32_t r, auto&& is_neighbor) {
    std::uint32_t live = g.inc_offsets[r];
    const std::uint32_t end = row_end[r];
    for (std::uint32_t p = live; p < end; ++p) {
      const std::uint32_t u = inc[p];
      if (!heap.contains(u)) continue;
      if (is_neighbor(u)) {
        fn(u);
        if (!heap.contains(u)) continue;
      }
      inc[p] = inc[live];
      inc[live++] = u;
    }
    row_end[r] = live;
  };
  scan(xi, [&](std::uint32_t u) {
    return u - lo >= span || g.first[u] == xi;
  });
  scan(xj, [&](std::uint32_t u) {
    return u - lo >= span && g.first[u] != xi;
  });
}

/// Hot selection loop ([[hotpath]]: no allocation, no throw). Pops the
/// (score, highest-id) maximum — the exact order the historical lazy
/// pair-heap produced, since a live node's freshest entry always dominated
/// its stale ones — deletes its closed neighbourhood from the heap, then
/// re-keys each survivor adjacent to a kill. Heap membership doubles as the
/// alive set; the two-phase kill keeps the historical update order: all of
/// N[v] leaves the heap before any survivor is re-scored, and degree /
/// nbr_weight decrements land in the same doomed-major, row-minor order as
/// before, so every score is the bit-identical double. Every row walk goes
/// through walk_live_neighbors, which visits live members in the full
/// walk's order and skips only dead ones, whose visits changed nothing.
void gwmin_select_loop(ConflictGraph& g, bool use_gwmin2, GwminWorkspace& ws,
                       std::vector<std::uint32_t>& selected) {
  auto& heap = ws.heap;
  const std::span<std::uint32_t> degree(g.degrees);
  auto& doomed = ws.doomed;
  const auto& weight = g.weight;
  auto& nbr_weight = ws.nbr_weight;
  auto& touch_list = ws.touch_list;
  while (!heap.empty()) {
    const auto top = heap.top();
    heap.pop_top();
    selected.push_back(top.v);

    // The winner itself decrements nothing: every live neighbour of it dies
    // in this walk, so only the neighbours' walks below can reach a
    // survivor.
    doomed.clear();
    walk_live_neighbors(g, ws, top.v, [&](std::uint32_t u) {
      heap.remove(u);
      doomed.push_back(u);
    });
    // Apply every degree / nbr_weight decrement first (same doomed-major,
    // row-minor order as always — the nbr_weight rounding sequence is
    // pinned), then re-key each touched survivor once with its final
    // post-round score. A survivor adjacent to several kills would
    // otherwise pay one sift-up per kill for intermediate keys nothing
    // ever reads.
    ws.touched.begin(g.size());
    touch_list.clear();
    for (const std::uint32_t u : doomed) {
      const double uw = weight[u];
      walk_live_neighbors(g, ws, u, [&](std::uint32_t w) {
        --degree[w];
        if (use_gwmin2) nbr_weight[w] -= uw;
        if (!ws.touched.marked(w)) {
          ws.touched.mark(w);
          touch_list.push_back(w);
        }
      });
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

/// Puts every row the solve compacted back in ascending node id, so the
/// graph leaves the solve as built. A scan that found no dead member left
/// its row untouched and its live end at the row's end; any other row holds
/// its original members with an ascending live prefix. Rows are short (at
/// most 2 * replicas * horizon members), so each is insertion-sorted from
/// its live end.
void restore_rows(ConflictGraph& g, const std::vector<std::uint32_t>& row_end) {
  auto& inc = g.inc_nodes;
  for (std::size_t r = 0; r < row_end.size(); ++r) {
    const std::uint32_t begin = g.inc_offsets[r];
    const std::uint32_t end = g.inc_offsets[r + 1];
    for (std::uint32_t p = std::max(row_end[r], begin + 1); p < end; ++p) {
      const std::uint32_t u = inc[p];
      std::uint32_t q = p;
      for (; q > begin && inc[q - 1] > u; --q) inc[q] = inc[q - 1];
      inc[q] = u;
    }
  }
}

}  // namespace

void solve_gwmin_in_place(ConflictGraph& g, bool use_gwmin2,
                          GwminWorkspace& ws,
                          std::vector<std::uint32_t>& selected) {
  require_degrees(g);
  selected.clear();
  const auto n = static_cast<std::uint32_t>(g.size());
  const auto& weight = g.weight;
  const auto& degree = g.degrees;
  auto& nbr_weight = ws.nbr_weight;
  if (use_gwmin2) nbr_weight.assign(n, 0.0);
  std::uint32_t max_deg = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    max_deg = std::max(max_deg, degree[v]);
    if (use_gwmin2) {
      g.for_each_neighbor(v,
                          [&](std::uint32_t u) { nbr_weight[v] += weight[u]; });
    }
  }
  ws.doomed.clear();
  ws.doomed.reserve(max_deg);

  ws.heap.assign(n, [&](std::uint32_t v) {
    if (use_gwmin2) {
      const double denom = weight[v] + nbr_weight[v];
      return denom == 0.0 ? 1.0 : weight[v] / denom;
    }
    return weight[v] / static_cast<double>(degree[v] + 1);
  });

  ws.row_end.assign(g.inc_offsets.begin() + 1, g.inc_offsets.end());
  gwmin_select_loop(g, use_gwmin2, ws, selected);
  std::sort(selected.begin(), selected.end());
  restore_rows(g, ws.row_end);
  std::vector<std::uint32_t>().swap(g.degrees);
}

}  // namespace eas::core
