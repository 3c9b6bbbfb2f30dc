#include "core/mwis_scheduler.hpp"

#include <sstream>

#include "core/energy_model.hpp"
#include "core/offline_eval.hpp"
#include "util/check.hpp"

namespace eas::core {

namespace {

/// Step 4's fallback generalised: sweep the trace in time order and place
/// every still-unassigned request on the replica whose most recent request
/// is closest — maximising the *predecessor's* realised Eq. 3 saving.
/// Already-assigned requests keep their disk and contribute to the piles.
void densest_pile_fill(OfflineAssignment& a, const trace::Trace& trace,
                       const placement::PlacementMap& placement,
                       const disk::DiskPowerParams& power) {
  // The sentinel initial value puts never-used disks outside the saving
  // window, so they score 0 without special-casing.
  std::vector<double> last_on_disk(placement.num_disks(),
                                   -power.saving_window_seconds() - 1.0);
  for (std::size_t r = 0; r < trace.size(); ++r) {
    DiskId chosen = a.disk_of_request[r];
    if (chosen == kInvalidDisk) {
      chosen = placement.original(trace[r].data);
      double best_saving = 0.0;
      for (DiskId k : placement.locations(trace[r].data)) {
        const double s =
            pairwise_energy_saving(last_on_disk[k], trace[r].time, power);
        if (s > best_saving) {
          best_saving = s;
          chosen = k;
        }
      }
      a.disk_of_request[r] = chosen;
    }
    last_on_disk[chosen] = trace[r].time;
  }
}

}  // namespace

std::string MwisOfflineScheduler::name() const {
  std::ostringstream os;
  os << "mwis(";
  switch (options_.algorithm) {
    case MwisOptions::Algorithm::kGwmin: os << "gwmin"; break;
    case MwisOptions::Algorithm::kGwmin2: os << "gwmin2"; break;
    case MwisOptions::Algorithm::kExact: os << "exact"; break;
  }
  os << ",h=" << options_.graph.successor_horizon << ")";
  return os.str();
}

OfflineAssignment MwisOfflineScheduler::select_opportunities(
    const trace::Trace& trace, const placement::PlacementMap& placement,
    const disk::DiskPowerParams& power) {
  ConflictGraph graph =
      build_conflict_graph(trace, placement, power, options_.graph,
                           graph_ws_);
  last_nodes_ = graph.size();
  last_edges_ = graph.num_edges();

  std::vector<std::uint32_t>& selected = selected_;
  selected.clear();
  switch (options_.algorithm) {
    case MwisOptions::Algorithm::kGwmin:
      solve_gwmin_in_place(graph, /*use_gwmin2=*/false, gwmin_ws_, selected);
      break;
    case MwisOptions::Algorithm::kGwmin2:
      solve_gwmin_in_place(graph, /*use_gwmin2=*/true, gwmin_ws_, selected);
      break;
    case MwisOptions::Algorithm::kExact: {
      // Reject an oversized instance before materialising its O(m)
      // adjacency (exact_mwis repeats the check on the graph it gets).
      EAS_REQUIRE_MSG(graph.size() <= options_.exact_vertex_limit,
                      "exact_mwis instance too large ("
                          << graph.size() << " > "
                          << options_.exact_vertex_limit << ")");
      const auto wg = graph.to_weighted_graph();
      const auto sol = graph::exact_mwis(wg, options_.exact_vertex_limit);
      selected.assign(sol.vertices.begin(), sol.vertices.end());
      break;
    }
  }
  // Verifies independence as a side effect, on the solver's marker (already
  // sized to the graph) rather than a second per-node array.
  last_saving_ = graph.selection_weight(selected, gwmin_ws_.touched);
  last_selected_ = selected.size();

  // Step 4: read the assignment off the selected opportunities.
  OfflineAssignment seed;
  seed.disk_of_request.assign(trace.size(), kInvalidDisk);
  for (std::uint32_t v : selected) {
    const DiskId k = graph.disk_of(v);
    for (std::uint32_t r : {graph.first[v], graph.second[v]}) {
      // Independence guarantees agreement: any two selected nodes sharing
      // a request name the same disk (schedule-constraint).
      EAS_CHECK_MSG(seed.disk_of_request[r] == kInvalidDisk ||
                        seed.disk_of_request[r] == k,
                    "conflicting assignment for request " << r);
      seed.disk_of_request[r] = k;
    }
  }
  return seed;
}

OfflineAssignment MwisOfflineScheduler::schedule(
    const trace::Trace& trace, const placement::PlacementMap& placement,
    const disk::DiskPowerParams& power) {
  last_saving_ = 0.0;
  last_nodes_ = 0;
  last_edges_ = 0;
  last_selected_ = 0;
  last_used_pile_ = false;

  auto refine = [&](OfflineAssignment& a) {
    if (options_.refine_passes > 0) {
      refine_offline_assignment(a, trace, placement, power,
                                options_.refine_passes, refine_ws_);
    }
  };

  // --- solver seed: the §3.1.2 pipeline (Steps 1-4) ----------------------
  OfflineAssignment solver_seed;
  const bool want_solver = options_.seed != MwisOptions::Seed::kPileOnly;
  if (want_solver) {
    // The conflict graph lives only inside this call, so it is freed
    // before refinement allocates.
    solver_seed = select_opportunities(trace, placement, power);
    densest_pile_fill(solver_seed, trace, placement, power);
    solver_seed.validate(trace, placement);
    refine(solver_seed);
    if (options_.seed == MwisOptions::Seed::kSolverOnly) return solver_seed;
  }

  // --- pile seed ----------------------------------------------------------
  OfflineAssignment pile_seed;
  pile_seed.disk_of_request.assign(trace.size(), kInvalidDisk);
  densest_pile_fill(pile_seed, trace, placement, power);
  pile_seed.validate(trace, placement);
  refine(pile_seed);
  if (options_.seed == MwisOptions::Seed::kPileOnly) {
    last_used_pile_ = true;
    return pile_seed;
  }

  // --- kBest: keep whichever refined seed costs less (Lemma 1) ------------
  const double solver_energy =
      evaluate_offline(trace, solver_seed, placement.num_disks(), power,
                       eval_ws_)
          .total_energy();
  const double pile_energy =
      evaluate_offline(trace, pile_seed, placement.num_disks(), power,
                       eval_ws_)
          .total_energy();
  if (pile_energy < solver_energy) {
    last_used_pile_ = true;
    return pile_seed;
  }
  return solver_seed;
}

}  // namespace eas::core
