// Ablation: composing the schedulers with a covering-subset power strategy
// ([16]/[14], cited in §1 as complementary). A minimum disk subset covering
// all data is pinned always-on; everything else runs 2CPM. Measures the
// energy premium of the availability guarantee and the latency it buys,
// across replication factors. The covering rows are a bench-local registry
// spec whose policy is built from the placement the factory is handed.
#include <iostream>

#include "core/cost_scheduler.hpp"
#include "power/covering_subset.hpp"
#include "power/fixed_threshold.hpp"
#include "runner/emit.hpp"
#include "runner/sweep.hpp"

using namespace eas;

int main() {
  const auto base =
      runner::ExperimentBuilder(runner::Workload::kCello)
          .requests(runner::requests_from_env(30000))
          .initial_state(disk::DiskState::Idle)  // covering disks boot first
          .build();
  const auto power = runner::paper_system_config().power;
  std::cerr << "# covering-subset ablation, " << runner::describe(base)
            << "\n";

  auto registry = runner::SchedulerRegistry::paper_roster();
  registry.add(
      {"covering", "Eq. 6 heuristic, covering subset pinned + 2CPM",
       [](const runner::ExperimentParams& p,
          const placement::PlacementMap& placement) {
         runner::SchedulerBundle b;
         b.online = std::make_unique<core::CostFunctionScheduler>(p.cost);
         b.policy = std::make_unique<power::CoveringSubsetPolicy>(placement);
         return b;
       }});

  std::vector<runner::CellSpec> cells;
  for (unsigned rf : {1u, 3u, 5u}) {
    const auto p = runner::ExperimentBuilder(base).replication(rf).build();
    {
      runner::CellSpec cell;
      cell.scheduler = "heuristic";
      cell.params = p;
      cell.tag = "2cpm/" + std::to_string(rf);
      cells.push_back(std::move(cell));
    }
    {
      runner::CellSpec cell;
      cell.scheduler = "covering";
      cell.params = p;
      cell.tag = "covering/" + std::to_string(rf);
      cells.push_back(std::move(cell));
    }
  }

  runner::SweepOptions opts;
  opts.progress = &std::cerr;
  const auto results =
      runner::SweepRunner(registry, opts).run(std::move(cells));

  runner::ResultTable t(
      "Ablation: 2CPM vs covering-subset pinning (heuristic scheduler)",
      {"rf", "policy", "pinned", "norm_energy", "mean_resp_s", "p99_resp_ms",
       "waited_spinup"});
  for (const auto& cell : results) {
    const auto& r = cell.result;
    const bool covering = cell.spec.tag.rfind("covering/", 0) == 0;
    // covering_size is a pure function of the placement; rebuild the policy
    // here rather than smuggling a side channel out of the cell.
    const std::size_t pinned =
        covering ? power::CoveringSubsetPolicy(*cell.spec.placement)
                       .covering_size()
                 : 0;
    t.row()
        .cell(static_cast<int>(cell.spec.params.replication_factor))
        .cell(covering ? "covering+2cpm" : "2cpm")
        .cell(pinned)
        .cell(r.normalized_energy(power))
        .cell(r.mean_response(), 4)
        .cell(r.response_times.p99() * 1e3, 1)
        .cell(static_cast<unsigned long long>(r.requests_waited_spinup));
  }
  t.emit(std::cout, runner::emit_format_from_env());
  std::cout << "\nExpected shape: pinning shrinks spin-up waits toward zero "
               "and cuts tail latency; the energy premium falls as rf grows "
               "(a higher rf needs fewer pinned disks per data item, and the "
               "scheduler concentrates load on them anyway).\n";
  return 0;
}
