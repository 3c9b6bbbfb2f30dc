// Ablation: the request reliability tier under sustained overload plus a
// transient outage. A 12-disk fleet is offered roughly 2x its aggregate
// service rate while one disk times out mid-run. The reliability-off twin
// has no defence: queues grow for as long as the overload lasts and the
// response tail grows with them. The reliability-on cells sweep the hedge
// delay with a fixed deadline/retry budget and bounded per-disk queues —
// they shed what the fleet cannot serve and bound the tail, with every
// dropped or abandoned request counted, not silently lost. Deterministic:
// the table is bit-identical across EAS_THREADS and repeated runs.
#include <iostream>

#include "runner/emit.hpp"
#include "runner/sweep.hpp"
#include "trace/synthetic.hpp"

using namespace eas;

int main() {
  const auto base = runner::ExperimentBuilder(runner::Workload::kCello)
                        .requests(runner::requests_from_env(20000))
                        .disks(12)
                        .replication(3)
                        // Spun-up start: a 0.25 s deadline budget is gone many
                        // times over inside one standby->active transition, so
                        // a cold fleet would abandon everything before serving
                        // anything and the sweep would only measure spin-up.
                        .initial_state(disk::DiskState::Idle)
                        .fail_disk_at(0, 0.5, /*repair=*/1.0)
                        .build();

  // One 512 KiB request occupies a disk for ~9.7 ms, so 12 disks serve
  // ~1240 req/s flat out; offer roughly twice that. Poisson arrivals (burst
  // multiplier 1) rather than the Cello MMPP preset: the point here is
  // *sustained* overload for the whole horizon, and a short MMPP window
  // realises far less than its configured long-run mean rate.
  trace::SyntheticTraceConfig tc = trace::cello_like_config(base.trace_seed);
  tc.num_requests = base.num_requests;
  tc.mean_rate = 2400.0;
  tc.burst_rate_multiplier = 1.0;
  auto shared_trace =
      std::make_shared<const trace::Trace>(trace::make_synthetic_trace(tc));

  std::cerr << "# reliability ablation, " << runner::describe(base) << "\n";

  std::vector<runner::CellSpec> cells;
  auto make_cell = [&](runner::ExperimentParams p, std::string tag) {
    runner::CellSpec cell;
    cell.scheduler = "heuristic";
    cell.params = std::move(p);
    cell.tag = std::move(tag);
    cell.trace = shared_trace;
    cells.push_back(std::move(cell));
  };

  make_cell(base, "off");
  const double hedge_delays[] = {0.02, 0.05, 0.10, 0.25};
  for (const double h : hedge_delays) {
    reliability::ReliabilityConfig rel;
    rel.deadline_seconds = 0.25;
    rel.max_attempts = 3;
    rel.hedge_delay_seconds = h;
    rel.max_queue_depth = 64;
    make_cell(runner::ExperimentBuilder(base).reliability(rel).build(),
              "on/h=" + std::to_string(h).substr(0, 4));
  }

  runner::SweepOptions opts;
  opts.progress = &std::cerr;
  const auto results = runner::SweepRunner(opts).run(std::move(cells));

  runner::ResultTable t(
      "Ablation: reliability tier under 2x overload + transient fault",
      {"mode", "hedge_s", "served", "p99_resp_s", "max_resp_s", "mean_resp_s",
       "deadline_miss", "retries", "hedge_wins", "shed", "abandoned",
       "energy_j"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i].result;
    const auto& rs = r.reliability_stats;
    const bool any = !r.response_times.empty();
    t.row()
        .cell(results[i].spec.tag)
        .cell(i == 0 ? 0.0 : hedge_delays[i - 1], 3)
        .cell(static_cast<unsigned long long>(r.total_requests))
        .cell(any ? r.response_times.p99() : 0.0, 4)
        .cell(any ? r.response_times.quantile(1.0) : 0.0, 4)
        .cell(r.mean_response(), 4)
        .cell(static_cast<unsigned long long>(rs.deadline_misses))
        .cell(static_cast<unsigned long long>(rs.retries))
        .cell(static_cast<unsigned long long>(rs.hedge_wins))
        .cell(static_cast<unsigned long long>(rs.shed))
        .cell(static_cast<unsigned long long>(rs.abandoned))
        .cell(r.total_energy());
  }
  t.emit(std::cout, runner::emit_format_from_env());
  std::cout << "\nExpected shape: the off twin serves everything eventually "
               "but its backlog compounds for the whole overload window — "
               "max and p99 response grow with trace length, an unbounded "
               "tail. Every reliability cell bounds p99 near the deadline: "
               "excess load is shed (counted, not lost), deadline retries "
               "re-spread waves across replicas, and shorter hedge delays "
               "trade extra disk work for a tighter read tail.\n";
  return 0;
}
