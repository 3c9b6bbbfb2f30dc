// Policy explorer: interactive sweep of the two knobs an operator actually
// owns — the cost-function trade-off (alpha) and the power-management
// idleness threshold — on a medium-size system, printing the
// energy/response frontier for each combination.
//
//   $ ./policy_explorer
#include <iostream>

#include "core/cost_scheduler.hpp"
#include "placement/placement.hpp"
#include "power/fixed_threshold.hpp"
#include "runner/emit.hpp"
#include "storage/storage_system.hpp"
#include "trace/synthetic.hpp"

using namespace eas;

int main() {
  storage::SystemConfig system;
  const double breakeven = system.power.breakeven_seconds();

  placement::ZipfPlacementConfig pcfg;
  pcfg.num_disks = 60;
  pcfg.num_data = 8000;
  pcfg.replication_factor = 3;
  const auto placement = placement::make_zipf_placement(pcfg);

  trace::SyntheticTraceConfig tcfg = trace::cello_like_config();
  tcfg.num_requests = 15000;
  tcfg.num_data = 8000;
  tcfg.mean_rate = 12.0;
  const auto trace = trace::make_synthetic_trace(tcfg);

  std::cout << "60 disks, rf=3, " << tcfg.num_requests
            << " bursty requests; breakeven T_B = " << breakeven << " s\n\n";

  runner::ResultTable t("", {"alpha", "threshold", "norm_energy",
                             "mean_resp_ms", "p99_resp_ms", "spin_cycles"});
  for (double alpha : {0.0, 0.2, 0.5, 1.0}) {
    for (double threshold_factor : {0.5, 1.0, 2.0}) {
      core::CostFunctionScheduler sched(core::CostParams{alpha, 100.0});
      power::FixedThresholdPolicy policy(breakeven * threshold_factor);
      const auto r =
          storage::run_online(system, placement, trace, sched, policy);
      t.row()
          .cell(alpha, 1)
          .cell(std::to_string(threshold_factor).substr(0, 3) + "x T_B")
          .cell(r.normalized_energy(system.power))
          .cell(r.mean_response() * 1e3, 1)
          .cell(r.response_times.p99() * 1e3, 1)
          .cell(static_cast<long long>(r.total_spin_ups()));
    }
  }
  t.emit_table(std::cout);
  std::cout << "\nReading the frontier: alpha trades response time for "
               "energy (0 = pure performance, 1 = pure energy); thresholds "
               "below the breakeven spin down eagerly and pay extra wake "
               "cycles, thresholds above sleep late and waste idle power. "
               "The 2CPM guarantee holds only at exactly 1.0x T_B.\n";
  return 0;
}
