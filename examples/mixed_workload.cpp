// Mixed read/write workload with the two extensions enabled: write
// off-loading (§2.1's assumed substrate) and the prediction-augmented
// online scheduler (§3.3's suggested refinement).
//
//   $ ./mixed_workload
#include <iostream>

#include "core/cost_scheduler.hpp"
#include "core/predictive_scheduler.hpp"
#include "core/write_offload.hpp"
#include "placement/placement.hpp"
#include "power/fixed_threshold.hpp"
#include "runner/emit.hpp"
#include "storage/storage_system.hpp"
#include "trace/synthetic.hpp"

using namespace eas;

int main() {
  storage::SystemConfig system;

  placement::ZipfPlacementConfig pcfg;
  pcfg.num_disks = 36;
  pcfg.num_data = 4000;
  pcfg.replication_factor = 3;
  const auto placement = placement::make_zipf_placement(pcfg);

  // 30% writes — §2.1 assumes these are off-loaded away from the scheduler.
  trace::SyntheticTraceConfig tcfg = trace::cello_like_config();
  tcfg.num_requests = 20000;
  tcfg.num_data = 4000;
  tcfg.mean_rate = 8.0;
  tcfg.write_fraction = 0.3;
  const auto trace = trace::make_synthetic_trace(tcfg);
  std::cout << "workload: " << trace.size() << " requests, "
            << trace.size() - trace.reads_only().size() << " writes\n\n";

  runner::ResultTable t("", {"configuration", "norm_energy", "spin_ups",
                             "mean_resp_ms", "diverted_writes"});
  auto report = [&](const std::string& label, const storage::RunResult& r,
                    const core::WriteOffloadManager& offloader) {
    t.row()
        .cell(label)
        .cell(r.normalized_energy(system.power))
        .cell(static_cast<long long>(r.total_spin_ups()))
        .cell(r.mean_response() * 1e3, 1)
        .cell(static_cast<long long>(offloader.stats().writes_diverted));
  };

  {  // naive: every write wakes its home disk, plain heuristic for reads
    core::CostFunctionScheduler sched;
    power::FixedThresholdPolicy policy;
    core::WriteOffloadOptions opts;
    opts.enabled = false;
    core::WriteOffloadManager offloader(opts);
    report("heuristic / wake-home writes",
           storage::run_online_mixed(system, placement, trace, sched, policy,
                                     offloader),
           offloader);
  }
  {  // write off-loading on
    core::CostFunctionScheduler sched;
    power::FixedThresholdPolicy policy;
    core::WriteOffloadManager offloader;
    report("heuristic / write off-loading",
           storage::run_online_mixed(system, placement, trace, sched, policy,
                                     offloader),
           offloader);
  }
  {  // off-loading + popularity prediction
    core::PredictiveCostScheduler sched;
    power::FixedThresholdPolicy policy;
    core::WriteOffloadManager offloader;
    report("predictive / write off-loading",
           storage::run_online_mixed(system, placement, trace, sched, policy,
                                     offloader),
           offloader);
  }
  t.emit_table(std::cout);
  std::cout << "\nWrite off-loading keeps sleeping home disks asleep by "
               "parking fresh blocks on already-spinning disks; reads of "
               "diverted blocks follow them until the home disk's next "
               "wake-up reclaims the data for free.\n";
  return 0;
}
