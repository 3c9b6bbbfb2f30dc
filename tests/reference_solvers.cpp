// The original implementations behind reference_solvers.hpp, moved here
// unchanged from the library (see that header for why they are kept).
#include "reference_solvers.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "core/energy_model.hpp"
#include "util/check.hpp"

namespace eas::graph {

namespace {

/// Shared greedy skeleton of the *reference* solvers: `score(v, alive,
/// alive_degree)` ranks surviving vertices by a full linear rescan; the best
/// one joins the solution and N[v] is deleted. O(n·k). Retained verbatim as
/// the executable specification the heap solvers are differentially tested
/// against (the heap's tie-break contract is "exactly what this scan does":
/// first strictly-better vertex wins, so equal scores keep the lowest
/// index).
template <typename ScoreFn>
MwisSolution greedy_mwis(const WeightedGraph& g, ScoreFn score) {
  const std::size_t n = g.size();
  std::vector<bool> alive(n, true);
  std::vector<std::size_t> alive_degree(n);
  for (std::size_t v = 0; v < n; ++v) alive_degree[v] = g.degree(v);
  std::size_t remaining = n;

  MwisSolution sol;
  while (remaining > 0) {
    double best_score = -1.0;
    std::size_t best = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      const double s = score(v, alive, alive_degree);
      if (s > best_score) {
        best_score = s;
        best = v;
      }
    }
    EAS_DCHECK(best < n);
    sol.vertices.push_back(best);
    sol.total_weight += g.weight(best);

    // Delete the closed neighbourhood N[best].
    auto kill = [&](std::size_t v) {
      if (!alive[v]) return;
      alive[v] = false;
      --remaining;
      for (std::uint32_t u : g.neighbors(v)) {
        if (alive[u]) --alive_degree[u];
      }
    };
    kill(best);
    for (std::uint32_t u : g.neighbors(best)) kill(u);
  }
  std::sort(sol.vertices.begin(), sol.vertices.end());
  if constexpr (audit_enabled()) check_independent(g, sol.vertices);
  return sol;
}

}  // namespace

MwisSolution gwmin_reference(const WeightedGraph& g) {
  return greedy_mwis(g, [&g](std::size_t v, const std::vector<bool>&,
                             const std::vector<std::size_t>& alive_degree) {
    return g.weight(v) / static_cast<double>(alive_degree[v] + 1);
  });
}

MwisSolution gwmin2_reference(const WeightedGraph& g) {
  return greedy_mwis(
      g, [&g](std::size_t v, const std::vector<bool>& alive,
              const std::vector<std::size_t>&) {
        double nbr = 0.0;
        for (std::uint32_t u : g.neighbors(v)) {
          if (alive[u]) nbr += g.weight(u);
        }
        const double denom = g.weight(v) + nbr;
        // An isolated zero-weight vertex is harmless to take: score 1.
        return denom == 0.0 ? 1.0 : g.weight(v) / denom;
      });
}

SetCoverSolution greedy_weighted_set_cover_reference(
    const SetCoverInstance& instance) {
  instance.validate();
  EAS_REQUIRE_MSG(instance.feasible(), "set cover instance is infeasible");

  const std::size_t m = instance.num_sets();
  std::vector<char> covered(instance.num_elements(), 0);
  std::size_t remaining = instance.num_elements();
  SetCoverSolution sol;

  // Full scan per round: lexicographic minimum of (ratio, -fresh, set),
  // realised by "first strictly better set wins" so equal keys keep the
  // lowest index — the order the exact-count scan must reproduce exactly.
  while (remaining > 0) {
    std::size_t best = m;
    double best_ratio = 0.0;
    std::size_t best_fresh = 0;
    for (std::size_t s = 0; s < m; ++s) {
      std::size_t fresh = 0;
      for (std::uint32_t e : instance.elements(s)) {
        if (!covered[e]) ++fresh;
      }
      if (fresh == 0) continue;
      const double ratio = instance.weights[s] / static_cast<double>(fresh);
      if (best == m || ratio < best_ratio ||
          (ratio == best_ratio && fresh > best_fresh)) {
        best = s;
        best_ratio = ratio;
        best_fresh = fresh;
      }
    }
    EAS_CHECK_MSG(best < m,
                  "greedy stalled with " << remaining << " uncovered");
    sol.chosen_sets.push_back(best);
    sol.total_weight += instance.weights[best];
    for (std::uint32_t e : instance.elements(best)) {
      if (!covered[e]) {
        covered[e] = 1;
        --remaining;
      }
    }
  }
  if constexpr (audit_enabled()) check_cover(sol, instance);
  return sol;
}

}  // namespace eas::graph

namespace eas::core {

namespace {

/// (time, request index): a strict total order even under timestamp ties.
using Key = std::pair<double, std::uint32_t>;

/// Lemma-1 consumption between a request at `ti` and its successor at `tj`;
/// tj = +inf denotes "no successor" and yields the ceiling.
double cons(double ti, double tj, const disk::DiskPowerParams& p) {
  return pairwise_energy_consumption(ti, tj, p);
}

/// Invokes `fn(u, v)` exactly once per conflicting node pair. Conflicts are
/// found through per-request buckets; a pair sharing *both* endpoints (the
/// same (i,j) on two disks) appears in two buckets and is emitted only from
/// bucket i, so no hashed dedup is needed.
template <typename Fn>
void for_each_conflict(std::span<const SavingNode> nodes,
                       const std::vector<std::vector<std::uint32_t>>& bucket,
                       Fn fn) {
  for (std::uint32_t r = 0; r < bucket.size(); ++r) {
    const auto& members = bucket[r];
    for (std::size_t a = 0; a < members.size(); ++a) {
      const SavingNode& u = nodes[members[a]];
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        const SavingNode& v = nodes[members[b]];
        if (u.i != v.i && u.k == v.k) continue;  // compatible
        if (u.i == v.i && u.j == v.j && u.j == r) continue;  // seen at bucket i
        fn(members[a], members[b]);
      }
    }
  }
}

}  // namespace

std::vector<SavingNode> enumerate_saving_nodes_reference(
    const trace::Trace& trace, const placement::PlacementMap& placement,
    const disk::DiskPowerParams& power, const ConflictGraphOptions& options) {
  const double window = power.saving_window_seconds();
  std::vector<SavingNode> nodes;
  for (std::uint32_t i = 0; i < trace.size(); ++i) {
    for (DiskId k : placement.locations(trace[i].data)) {
      std::size_t candidates = 0;
      for (std::uint32_t j = i + 1; j < trace.size(); ++j) {
        if (trace[j].time - trace[i].time >= window) break;
        if (!placement.stores(trace[j].data, k)) continue;
        if (++candidates > options.successor_horizon) break;
        const double w =
            pairwise_energy_saving(trace[i].time, trace[j].time, power);
        if (w > 0.0) nodes.push_back({i, j, k, w});
      }
    }
  }
  std::stable_sort(nodes.begin(), nodes.end(),
                   [](const SavingNode& a, const SavingNode& b) {
                     return a.k < b.k;
                   });
  return nodes;
}

graph::WeightedGraph build_conflict_csr_reference(
    std::span<const SavingNode> nodes, std::size_t num_requests) {
  std::vector<std::vector<std::uint32_t>> bucket(num_requests);
  for (std::uint32_t v = 0; v < nodes.size(); ++v) {
    bucket[nodes[v].i].push_back(v);
    bucket[nodes[v].j].push_back(v);
  }
  std::vector<std::size_t> offsets(nodes.size() + 1, 0);
  for_each_conflict(nodes, bucket, [&](std::uint32_t u, std::uint32_t v) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  });
  for (std::size_t v = 0; v < nodes.size(); ++v) offsets[v + 1] += offsets[v];
  std::vector<std::uint32_t> adj(offsets.back());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for_each_conflict(nodes, bucket, [&](std::uint32_t u, std::uint32_t v) {
    adj[cursor[u]++] = v;
    adj[cursor[v]++] = u;
  });
  std::vector<double> weights;
  for (const SavingNode& n : nodes) weights.push_back(n.weight);
  return graph::WeightedGraph(std::move(weights), std::move(offsets),
                              std::move(adj));
}

RefineStats refine_offline_assignment_reference(
    OfflineAssignment& assignment, const trace::Trace& trace,
    const placement::PlacementMap& placement,
    const disk::DiskPowerParams& power, std::size_t max_passes) {
  assignment.validate(trace, placement);
  const double inf = std::numeric_limits<double>::infinity();

  std::vector<std::set<Key>> on_disk(placement.num_disks());
  for (std::uint32_t r = 0; r < trace.size(); ++r) {
    on_disk[assignment.disk_of_request[r]].insert({trace[r].time, r});
  }

  // Consumption of the gap around an iterator position, treating missing
  // neighbours as "no successor" / "no predecessor".
  auto succ_time = [&](const std::set<Key>& s,
                       std::set<Key>::iterator it) {
    auto nx = std::next(it);
    return nx == s.end() ? inf : nx->first;
  };

  RefineStats stats;

  // Adjacent-pair move: relocate request r (at t1) together with the disk's
  // immediately following request s (at t2) onto a destination disk that
  // stores both and has no element inside (t1, t2). The shared cons(t1,t2)
  // term cancels between removal and insertion.
  auto try_pair_move = [&](std::uint32_t r) -> bool {
    const double t1 = trace[r].time;
    const DiskId from = assignment.disk_of_request[r];
    auto& src = on_disk[from];
    const auto it = src.find({t1, r});
    EAS_DCHECK(it != src.end());
    const auto it_s = std::next(it);
    if (it_s == src.end()) return false;
    const auto [t2, s] = *it_s;

    // Source-side delta (minus the cancelling cons(t1, t2) term).
    const double t_q = succ_time(src, it_s);
    double delta_remove = -cons(t2, t_q, power);
    if (it != src.begin()) {
      const double t_p = std::prev(it)->first;
      delta_remove += cons(t_p, t_q, power) - cons(t_p, t1, power);
    }

    double best_delta = -1e-9;
    DiskId best_disk = from;
    for (DiskId k : placement.locations(trace[r].data)) {
      if (k == from || !placement.stores(trace[s].data, k)) continue;
      auto& dst = on_disk[k];
      const auto pos1 = dst.lower_bound({t1, r});
      // Require the destination gap to be empty so both insertions stay
      // adjacent and the delta stays closed-form.
      if (pos1 != dst.end() && pos1->first < t2) continue;
      const double t_next = pos1 == dst.end() ? inf : pos1->first;
      double delta_insert = cons(t2, t_next, power);
      if (pos1 != dst.begin()) {
        const double t_p = std::prev(pos1)->first;
        delta_insert += cons(t_p, t1, power) - cons(t_p, t_next, power);
      }
      const double delta = delta_remove + delta_insert;
      if (delta < best_delta) {
        best_delta = delta;
        best_disk = k;
      }
    }
    if (best_disk == from) return false;
    src.erase(src.find({t2, s}));
    src.erase(src.find({t1, r}));
    on_disk[best_disk].insert({t1, r});
    on_disk[best_disk].insert({t2, s});
    assignment.disk_of_request[r] = best_disk;
    assignment.disk_of_request[s] = best_disk;
    stats.energy_delta += best_delta;
    return true;
  };

  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    std::size_t moves_this_pass = 0;
    for (std::uint32_t r = 0; r < trace.size(); ++r) {
      if (try_pair_move(r)) {
        ++stats.pair_moves;
        ++moves_this_pass;
      }
    }
    for (std::uint32_t r = 0; r < trace.size(); ++r) {
      const double t = trace[r].time;
      const auto& locs = placement.locations(trace[r].data);
      if (locs.size() < 2) continue;
      const DiskId from = assignment.disk_of_request[r];
      auto& src = on_disk[from];
      const auto it = src.find({t, r});
      EAS_DCHECK(it != src.end());

      // Cost change on the source disk if r leaves.
      const double t_next_src = succ_time(src, it);
      double delta_remove = -cons(t, t_next_src, power);
      if (it != src.begin()) {
        const double t_prev = std::prev(it)->first;
        delta_remove +=
            cons(t_prev, t_next_src, power) - cons(t_prev, t, power);
      }

      double best_delta = -1e-9;  // strict improvement only
      DiskId best_disk = from;
      for (DiskId k : locs) {
        if (k == from) continue;
        auto& dst = on_disk[k];
        const auto pos = dst.lower_bound({t, r});
        const double t_next = pos == dst.end() ? inf : pos->first;
        double delta_insert = cons(t, t_next, power);
        if (pos != dst.begin()) {
          const double t_prev = std::prev(pos)->first;
          delta_insert +=
              cons(t_prev, t, power) - cons(t_prev, t_next, power);
        }
        const double delta = delta_remove + delta_insert;
        if (delta < best_delta) {
          best_delta = delta;
          best_disk = k;
        }
      }
      if (best_disk != from) {
        src.erase(it);
        on_disk[best_disk].insert({t, r});
        assignment.disk_of_request[r] = best_disk;
        ++moves_this_pass;
        stats.energy_delta += best_delta;
      }
    }
    ++stats.passes;
    stats.moves += moves_this_pass;
    if (moves_this_pass == 0) break;
  }
  assignment.validate(trace, placement);
  return stats;
}

}  // namespace eas::core
