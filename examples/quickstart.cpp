// Quickstart: the smallest end-to-end use of libeasched.
//
// Builds a 24-disk replicated storage system, generates a bursty synthetic
// read trace, and runs it twice — once routing every request to its primary
// copy (Static) and once with the paper's energy-aware online heuristic —
// then compares energy, spin cycles and response time.
//
//   $ ./quickstart
#include <iostream>

#include "core/basic_schedulers.hpp"
#include "core/cost_scheduler.hpp"
#include "placement/placement.hpp"
#include "power/fixed_threshold.hpp"
#include "runner/emit.hpp"
#include "storage/storage_system.hpp"
#include "trace/synthetic.hpp"

using namespace eas;

int main() {
  // 1. Describe the fleet: 24 disks with the default (Cheetah/Barracuda)
  //    performance and power model; disks start spun down.
  storage::SystemConfig system;  // defaults are the paper's disk model

  // 2. Place 2,000 data items with 3 copies each: originals Zipf-skewed
  //    across the disks, replicas uniform — the usual fault-tolerant layout.
  placement::ZipfPlacementConfig pcfg;
  pcfg.num_disks = 24;
  pcfg.num_data = 2000;
  pcfg.replication_factor = 3;
  pcfg.zipf_z = 1.0;
  const auto placement = placement::make_zipf_placement(pcfg);

  // 3. Generate a 10,000-request bursty read workload over those items.
  trace::SyntheticTraceConfig tcfg;
  tcfg.num_requests = 10000;
  tcfg.num_data = 2000;
  tcfg.mean_rate = 6.0;                // sparse enough that sleeping pays
  tcfg.burst_rate_multiplier = 30.0;
  tcfg.burst_time_fraction = 0.05;
  const auto trace = trace::make_synthetic_trace(tcfg);

  // 4. Run the same trace under both schedulers; 2CPM manages spin-downs.
  core::StaticScheduler static_sched;
  core::CostFunctionScheduler energy_aware;  // alpha=0.2, beta=100
  power::FixedThresholdPolicy p1, p2;        // 2CPM (threshold = breakeven)
  const auto baseline =
      storage::run_online(system, placement, trace, static_sched, p1);
  const auto improved =
      storage::run_online(system, placement, trace, energy_aware, p2);

  // 5. Compare.
  runner::ResultTable t("", {"metric", "static", "energy-aware heuristic"});
  t.row()
      .cell("energy (kJ)")
      .cell(baseline.total_energy() / 1e3, 1)
      .cell(improved.total_energy() / 1e3, 1);
  t.row()
      .cell("energy vs always-on")
      .cell(baseline.normalized_energy(system.power))
      .cell(improved.normalized_energy(system.power));
  t.row()
      .cell("disk spin-ups")
      .cell(static_cast<long long>(baseline.total_spin_ups()))
      .cell(static_cast<long long>(improved.total_spin_ups()));
  t.row()
      .cell("mean response (ms)")
      .cell(baseline.mean_response() * 1e3, 1)
      .cell(improved.mean_response() * 1e3, 1);
  t.row()
      .cell("p99 response (ms)")
      .cell(baseline.response_times.p99() * 1e3, 1)
      .cell(improved.response_times.p99() * 1e3, 1);
  t.emit_table(std::cout);

  const double saved = 100.0 * (1.0 - improved.total_energy() /
                                          baseline.total_energy());
  std::cout << "\nenergy-aware scheduling saved " << saved
            << "% energy on the same workload and placement.\n";
  return 0;
}
