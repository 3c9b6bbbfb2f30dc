// Ablation: write off-loading (§2.1's assumed substrate, implemented as an
// extension). Sweeps the write fraction of a Cello-like workload and
// compares wake-the-home-disk handling against off-loading to spinning
// disks, under the energy-aware heuristic at rf=3. The two modes are
// bench-local registry specs whose bundles carry a WriteOffloadManager, so
// run_cell runs them through run_online_mixed; the off-load counters come
// back in RunResult::write_offload_stats.
#include <iostream>

#include "core/cost_scheduler.hpp"
#include "core/write_offload.hpp"
#include "power/fixed_threshold.hpp"
#include "runner/emit.hpp"
#include "runner/sweep.hpp"
#include "trace/synthetic.hpp"

using namespace eas;

int main() {
  const auto params = runner::ExperimentBuilder(runner::Workload::kCello)
                          .requests(runner::requests_from_env(30000))
                          .replication(3)
                          .build();
  const auto power = runner::paper_system_config().power;
  std::cerr << "# write-offload ablation, " << runner::describe(params)
            << "\n";

  auto registry = runner::SchedulerRegistry::paper_roster();
  for (const bool enabled : {false, true}) {
    registry.add(
        {enabled ? "offload" : "wake-home",
         "Eq. 6 heuristic, 2CPM, write off-loader with diversion on/off",
         [enabled](const runner::ExperimentParams& p,
                   const placement::PlacementMap&) {
           core::WriteOffloadOptions o;
           o.enabled = enabled;
           o.cost = p.cost;
           runner::SchedulerBundle b;
           b.online = std::make_unique<core::CostFunctionScheduler>(p.cost);
           b.policy = std::make_unique<power::FixedThresholdPolicy>();
           b.offload = std::make_unique<core::WriteOffloadManager>(o);
           return b;
         }});
  }

  const double fracs[] = {0.0, 0.1, 0.3, 0.5};
  std::vector<runner::CellSpec> cells;
  for (const double frac : fracs) {
    trace::SyntheticTraceConfig tc =
        trace::cello_like_config(params.trace_seed);
    tc.num_requests = params.num_requests;
    tc.write_fraction = frac;
    auto shared_trace = std::make_shared<const trace::Trace>(
        trace::make_synthetic_trace(tc));

    for (const char* mode : {"wake-home", "offload"}) {
      runner::CellSpec cell;
      cell.scheduler = mode;
      cell.params = params;
      cell.tag = std::to_string(frac).substr(0, 3) + "/" + mode;
      cell.trace = shared_trace;
      cells.push_back(std::move(cell));
    }
  }

  runner::SweepOptions opts;
  opts.progress = &std::cerr;
  const auto results =
      runner::SweepRunner(registry, opts).run(std::move(cells));

  runner::ResultTable t(
      "Ablation: write off-loading vs wake-the-home, rf=3",
      {"write_frac", "mode", "norm_energy", "spin_up+down", "mean_resp_s",
       "diverted", "redirected_reads", "reclaims"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i].result;
    const auto& stats = r.write_offload_stats;
    t.row()
        .cell(fracs[i / 2], 1)
        .cell(results[i].spec.scheduler)
        .cell(r.normalized_energy(power))
        .cell(static_cast<unsigned long long>(r.total_spin_ups() +
                                              r.total_spin_downs()))
        .cell(r.mean_response(), 4)
        .cell(static_cast<unsigned long long>(stats.writes_diverted))
        .cell(static_cast<unsigned long long>(stats.reads_redirected))
        .cell(static_cast<unsigned long long>(stats.reclaims));
  }
  t.emit(std::cout, runner::emit_format_from_env());
  std::cout << "\nExpected shape: identical at write fraction 0; as writes "
               "grow, wake-the-home burns wake cycles on sleeping homes "
               "while off-loading keeps them asleep (lower energy, fewer "
               "spin ops) at the cost of diversion bookkeeping.\n";
  return 0;
}
