// Trace replay: run a block-level I/O trace (real or synthetic) through the
// storage simulator with a chosen scheduler and print a full report.
//
// Usage:
//   ./trace_replay [--trace FILE] [--scheduler NAME] [--policy POLICY]
//                  [--rf N] [--disks N] [--zipf Z] [--alpha A] [--beta B]
//                  [--batch SECONDS] [--requests N]
//                  [--workload cello|financial]
//
// NAME in {static, random, heuristic, predictive, wsc, mwis, always-on};
// POLICY in {2cpm, covering} (online schedulers only). Without --trace, a
// synthetic workload is generated (--workload picks the preset). Supported
// trace formats by extension: .spc (UMass/SPC CSV), .cello (textual Cello
// export), .csv (this library's own format, see trace/parsers.hpp).
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "core/basic_schedulers.hpp"
#include "core/cost_scheduler.hpp"
#include "core/mwis_scheduler.hpp"
#include "core/predictive_scheduler.hpp"
#include "core/wsc_scheduler.hpp"
#include "placement/placement.hpp"
#include "power/covering_subset.hpp"
#include "power/fixed_threshold.hpp"
#include "runner/emit.hpp"
#include "storage/storage_system.hpp"
#include "trace/parsers.hpp"
#include "trace/synthetic.hpp"

using namespace eas;

namespace {

struct Options {
  std::string trace_file;
  std::string scheduler = "heuristic";
  std::string policy = "2cpm";
  std::string workload = "cello";
  unsigned rf = 3;
  DiskId disks = 60;
  double zipf = 1.0;
  double alpha = 0.2;
  double beta = 100.0;
  double batch = 0.1;
  std::size_t requests = 20000;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--trace") o.trace_file = next();
    else if (flag == "--scheduler") o.scheduler = next();
    else if (flag == "--policy") o.policy = next();
    else if (flag == "--workload") o.workload = next();
    else if (flag == "--rf") o.rf = static_cast<unsigned>(std::stoul(next()));
    else if (flag == "--disks") o.disks = static_cast<DiskId>(std::stoul(next()));
    else if (flag == "--zipf") o.zipf = std::stod(next());
    else if (flag == "--alpha") o.alpha = std::stod(next());
    else if (flag == "--beta") o.beta = std::stod(next());
    else if (flag == "--batch") o.batch = std::stod(next());
    else if (flag == "--requests") o.requests = std::stoul(next());
    else {
      std::cerr << "unknown flag " << flag << "\n";
      std::exit(2);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);

  // Workload: parse a file or synthesise one.
  trace::Trace t;
  if (!o.trace_file.empty()) {
    try {
      t = trace::load_trace_file(o.trace_file).densified();
    } catch (const std::exception& e) {
      std::cerr << "failed to load trace: " << e.what() << "\n";
      return 1;
    }
    if (o.requests > 0) t = t.prefix(o.requests);
  } else {
    auto cfg = o.workload == "financial" ? trace::financial_like_config()
                                         : trace::cello_like_config();
    cfg.num_requests = o.requests;
    t = trace::make_synthetic_trace(cfg);
  }
  const auto stats = t.compute_stats();
  std::cout << "trace: " << stats.num_records << " reads over "
            << stats.num_distinct_data << " data items, "
            << stats.duration_seconds << " s (rate " << stats.mean_rate
            << "/s, interarrival CV " << stats.interarrival_cv << ")\n";

  placement::ZipfPlacementConfig pcfg;
  pcfg.num_disks = o.disks;
  pcfg.num_data = std::max<DataId>(t.data_universe_size(), 1);
  pcfg.replication_factor = o.rf;
  pcfg.zipf_z = o.zipf;
  const auto placement = placement::make_zipf_placement(pcfg);

  storage::SystemConfig system;
  core::CostParams cost{o.alpha, o.beta};

  // Power policy for the online schedulers.
  auto make_policy = [&]() -> std::unique_ptr<power::PowerPolicy> {
    if (o.policy == "covering") {
      system.initial_state = disk::DiskState::Idle;
      return std::make_unique<power::CoveringSubsetPolicy>(placement);
    }
    if (o.policy != "2cpm") {
      std::cerr << "unknown policy '" << o.policy << "'\n";
      std::exit(2);
    }
    return std::make_unique<power::FixedThresholdPolicy>();
  };

  storage::RunResult result;
  if (o.scheduler == "static") {
    core::StaticScheduler s;
    const auto p = make_policy();
    result = storage::run_online(system, placement, t, s, *p);
  } else if (o.scheduler == "random") {
    core::RandomScheduler s;
    const auto p = make_policy();
    result = storage::run_online(system, placement, t, s, *p);
  } else if (o.scheduler == "heuristic") {
    core::CostFunctionScheduler s(cost);
    const auto p = make_policy();
    result = storage::run_online(system, placement, t, s, *p);
  } else if (o.scheduler == "predictive") {
    core::PredictiveParams pp;
    pp.cost = cost;
    core::PredictiveCostScheduler s(pp);
    const auto p = make_policy();
    result = storage::run_online(system, placement, t, s, *p);
  } else if (o.scheduler == "wsc") {
    core::WscBatchScheduler s(o.batch, cost);
    power::FixedThresholdPolicy p;
    result = storage::run_batch(system, placement, t, s, p);
  } else if (o.scheduler == "mwis") {
    core::MwisOfflineScheduler s;
    const auto assignment = s.schedule(t, placement, system.power);
    result = storage::run_offline(system, placement, t, assignment, s.name());
  } else if (o.scheduler == "always-on") {
    result = storage::run_always_on(system, placement, t);
  } else {
    std::cerr << "unknown scheduler '" << o.scheduler << "'\n";
    return 2;
  }

  runner::ResultTable r("", {"metric", "value"});
  r.row().cell("scheduler").cell(result.scheduler_name);
  r.row().cell("power policy").cell(result.policy_name);
  r.row().cell("requests served").cell(
      static_cast<long long>(result.total_requests));
  r.row().cell("horizon (s)").cell(result.horizon, 1);
  r.row().cell("total energy (kJ)").cell(result.total_energy() / 1e3, 2);
  r.row().cell("energy vs always-on").cell(
      result.normalized_energy(system.power));
  r.row().cell("spin-ups / spin-downs").cell(
      std::to_string(result.total_spin_ups()) + " / " +
      std::to_string(result.total_spin_downs()));
  r.row().cell("requests that waited on spin-up").cell(
      static_cast<long long>(result.requests_waited_spinup));
  r.row().cell("mean response (ms)").cell(result.mean_response() * 1e3, 2);
  if (!result.response_times.empty()) {
    r.row().cell("median response (ms)").cell(
        result.response_times.median() * 1e3, 2);
    r.row().cell("p90 response (ms)").cell(result.response_times.p90() * 1e3, 2);
    r.row().cell("p99 response (ms)").cell(result.response_times.p99() * 1e3, 2);
    r.row().cell("max response (s)").cell(result.response_times.quantile(1.0), 2);
  }
  r.emit_table(std::cout);
  return 0;
}
