// Ablation: the power-management policy under a fixed scheduler.
// 2CPM's breakeven threshold is provably 2-competitive; this bench measures
// how always-on, eager/lazy thresholds, and the offline oracle compare on a
// real workload (heuristic scheduler, rf = 3, Cello). The threshold rows and
// the oracle row are bench-local registry specs added to the paper roster.
#include <iostream>

#include "core/basic_schedulers.hpp"
#include "core/cost_scheduler.hpp"
#include "power/fixed_threshold.hpp"
#include "runner/emit.hpp"
#include "runner/sweep.hpp"

using namespace eas;

int main() {
  const auto params = runner::ExperimentBuilder(runner::Workload::kCello)
                          .requests(runner::requests_from_env(30000))
                          .replication(3)
                          .build();
  const auto cfg = runner::paper_system_config();
  const double breakeven = cfg.power.breakeven_seconds();
  std::cerr << "# " << runner::describe(params) << "\n";

  auto registry = runner::SchedulerRegistry::paper_roster();
  std::vector<std::string> rows = {"always-on"};
  for (double factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    rows.push_back("threshold x" + std::to_string(factor).substr(0, 4));
    registry.add(
        {rows.back(), "Eq. 6 heuristic, 2CPM threshold scaled from T_B",
         [factor, breakeven](const runner::ExperimentParams& p,
                             const placement::PlacementMap&) {
           runner::SchedulerBundle b;
           b.online = std::make_unique<core::CostFunctionScheduler>(p.cost);
           b.policy = std::make_unique<power::FixedThresholdPolicy>(
               factor == 1.0 ? -1.0 : breakeven * factor);
           return b;
         }});
  }
  // Oracle comparison point: a deterministic assignment (Static) replayed
  // with future knowledge (per-disk pre-spins, no wake penalties) — a
  // stateful heuristic's dispatch cannot be replayed offline, so Static
  // isolates the policy axis. The plain online Static row pairs with it.
  registry.add({"static@oracle", "static assignment under the oracle policy",
                [](const runner::ExperimentParams&,
                   const placement::PlacementMap&) {
                  runner::SchedulerBundle b;
                  b.offline = std::make_unique<core::StaticScheduler>();
                  return b;
                }});
  rows.push_back("static@oracle");
  rows.push_back("static");

  runner::SweepOptions opts;
  opts.progress = &std::cerr;
  const auto results = runner::SweepRunner(registry, opts).run(
      runner::product_grid(params, rows, {"rf3"}, nullptr));

  runner::ResultTable t(
      "Ablation: power policy under the heuristic scheduler, rf=3 (Cello)",
      {"policy", "norm_energy", "mean_resp_s", "waited_spinup",
       "spin_up+down"});
  for (const auto& cell : results) {
    const auto& r = cell.result;
    t.row()
        .cell(r.policy_name)
        .cell(r.normalized_energy(cfg.power))
        .cell(r.mean_response(), 4)
        .cell(static_cast<unsigned long long>(r.requests_waited_spinup))
        .cell(static_cast<unsigned long long>(r.total_spin_ups() +
                                              r.total_spin_downs()));
  }
  t.emit(std::cout, runner::emit_format_from_env());
  std::cout << "\nExpected shape: eager thresholds (< T_B) add spin cycles "
               "and wake penalties; lazy ones (> T_B) idle away the savings; "
               "the oracle rows bound what any threshold policy could do on "
               "the same assignment.\n";
  return 0;
}
