// Ablation: optimality gap of the greedy solvers on small instances where
// the exact solvers are tractable — greedy weighted set cover vs exact
// cover, and GWMIN(+refinement) vs exact MWIS on random offline scheduling
// instances. §5.1 conjectures "more sophisticated set cover and independent
// set algorithms" would save more; this quantifies how much is on the table.
#include <iostream>

#include "core/mwis_scheduler.hpp"
#include "core/offline_eval.hpp"
#include "graph/set_cover.hpp"
#include "placement/placement.hpp"
#include "runner/emit.hpp"
#include "stats/summary.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

using namespace eas;

namespace {

disk::DiskPowerParams small_power() {
  disk::DiskPowerParams p;
  p.idle_watts = 1.0;
  p.active_watts = 1.0;
  p.standby_watts = 0.0;
  p.spinup_watts = 2.0;
  p.spindown_watts = 1.0;
  p.spinup_seconds = 1.0;
  p.spindown_seconds = 1.0;  // T_B = 3 s, window 5 s
  return p;
}

}  // namespace

int main() {
  const int kRounds = 200;

  // --- greedy vs exact weighted set cover -------------------------------
  {
    stats::SummaryStats ratio;
    int optimal_hits = 0;
    for (int round = 0; round < kRounds; ++round) {
      util::Rng rng(1000 + round);
      constexpr std::uint32_t kElements = 14;
      std::vector<graph::SetSpec> sets;
      for (int s = 0; s < 12; ++s) {
        graph::SetSpec set;
        set.weight = rng.uniform(0.2, 5.0);
        for (std::uint32_t e = 0; e < kElements; ++e) {
          if (rng.bernoulli(0.3)) set.elements.push_back(e);
        }
        sets.push_back(std::move(set));
      }
      graph::SetSpec universal;
      universal.weight = 25.0;
      for (std::uint32_t e = 0; e < kElements; ++e) {
        universal.elements.push_back(e);
      }
      sets.push_back(std::move(universal));
      const auto inst = graph::make_set_cover(kElements, sets);

      const auto greedy = graph::greedy_weighted_set_cover(inst);
      const auto exact = graph::exact_set_cover(inst);
      const double r = greedy.total_weight / exact->total_weight;
      ratio.add(r);
      if (r < 1.0 + 1e-9) ++optimal_hits;
    }
    runner::ResultTable t("Ablation: greedy vs exact weighted set cover (" +
                              std::to_string(kRounds) +
                              " random batch instances)",
                          {"metric", "value"});
    t.row().cell("mean weight ratio (greedy/opt)").cell(ratio.mean(), 4);
    t.row().cell("max weight ratio").cell(ratio.max(), 4);
    t.row().cell("instances solved optimally").cell(
        std::to_string(optimal_hits) + " / " + std::to_string(kRounds));
    t.emit(std::cout, runner::emit_format_from_env());
    std::cout << "\n";
  }

  // --- GWMIN / GWMIN2 / +refine vs exact MWIS on scheduling instances ----
  {
    const auto power = small_power();
    struct Variant {
      const char* label;
      core::MwisOptions opts;
    };
    std::vector<Variant> variants;
    {
      core::MwisOptions o;
      o.algorithm = core::MwisOptions::Algorithm::kGwmin;
      o.refine_passes = 0;
      o.graph.successor_horizon = 8;
      variants.push_back({"gwmin (paper)", o});
      o.algorithm = core::MwisOptions::Algorithm::kGwmin2;
      variants.push_back({"gwmin2", o});
      o.algorithm = core::MwisOptions::Algorithm::kGwmin;
      o.refine_passes = 3;
      variants.push_back({"gwmin+refine", o});
    }

    std::vector<stats::SummaryStats> ratios(variants.size());
    std::vector<int> hits(variants.size(), 0);
    int rounds_used = 0;
    for (int round = 0; round < kRounds; ++round) {
      util::Rng rng(5000 + round);
      // 10 requests, 4 disks, rf 2.
      std::vector<std::vector<DiskId>> locs(10);
      for (auto& l : locs) {
        while (l.size() < 2) {
          const auto k = static_cast<DiskId>(rng.next_below(4));
          if (std::find(l.begin(), l.end(), k) == l.end()) l.push_back(k);
        }
      }
      placement::PlacementMap placement(4, std::move(locs));
      std::vector<trace::TraceRecord> recs;
      double t = 0.0;
      for (DataId b = 0; b < 10; ++b) {
        t += rng.uniform(0.2, 3.0);
        recs.push_back({t, b, 4096, true});
      }
      const trace::Trace trace(std::move(recs));
      const double horizon =
          trace.end_time() + power.breakeven_seconds() + power.spindown_seconds;

      core::MwisOptions exact_opts;
      exact_opts.algorithm = core::MwisOptions::Algorithm::kExact;
      exact_opts.graph.successor_horizon = 10;
      exact_opts.exact_vertex_limit = 400;
      exact_opts.refine_passes = 0;
      core::MwisOfflineScheduler exact_sched(exact_opts);
      const auto exact_assignment =
          exact_sched.schedule(trace, placement, power);
      const double exact_energy =
          core::evaluate_offline(trace, exact_assignment, 4, power, horizon)
              .total_energy();
      if (exact_energy <= 0.0) continue;
      ++rounds_used;

      for (std::size_t v = 0; v < variants.size(); ++v) {
        core::MwisOfflineScheduler sched(variants[v].opts);
        const auto a = sched.schedule(trace, placement, power);
        const double e =
            core::evaluate_offline(trace, a, 4, power, horizon).total_energy();
        const double r = e / exact_energy;
        ratios[v].add(r);
        if (r < 1.0 + 1e-9) ++hits[v];
      }
    }
    runner::ResultTable t(
        "Ablation: greedy MWIS variants vs exact, offline scheduling energy "
        "(" + std::to_string(rounds_used) + " random instances)",
        {"variant", "mean energy ratio", "max energy ratio",
         "optimal instances"});
    for (std::size_t v = 0; v < variants.size(); ++v) {
      t.row()
          .cell(variants[v].label)
          .cell(ratios[v].mean(), 4)
          .cell(ratios[v].max(), 4)
          .cell(std::to_string(hits[v]) + " / " + std::to_string(rounds_used));
    }
    t.emit(std::cout, runner::emit_format_from_env());
    std::cout << "\nExpected shape: all greedies within a few percent of "
                 "exact; refinement closes most of GWMIN's residual gap.\n";
  }
  return 0;
}
