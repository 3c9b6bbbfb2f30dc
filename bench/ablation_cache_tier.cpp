// Ablation: the power-aware cache & destage tier. Runs cache-off/cache-on
// twins of a mixed Cello-like workload (30% writes) under the energy-aware
// heuristic + 2CPM, sweeping the memory power charged per GiB of tier
// capacity. The tier only wins while its DRAM/NVRAM power stays below the
// disk energy it saves (hits avoid wakes, destages ride already-paid
// spin-ups) — the sweep locates that crossover. Cache cells carry their
// CacheConfig through ExperimentParams, so every cell is the registry's
// "heuristic" row.
#include <iostream>

#include "runner/emit.hpp"
#include "runner/sweep.hpp"
#include "trace/synthetic.hpp"

using namespace eas;

int main() {
  const auto base = runner::ExperimentBuilder(runner::Workload::kCello)
                        .requests(runner::requests_from_env(30000))
                        .replication(3)
                        .build();

  trace::SyntheticTraceConfig tc = trace::cello_like_config(base.trace_seed);
  tc.num_requests = base.num_requests;
  tc.write_fraction = 0.3;
  auto shared_trace =
      std::make_shared<const trace::Trace>(trace::make_synthetic_trace(tc));

  std::cerr << "# cache-tier ablation, " << runner::describe(base) << "\n";

  // Cell 0: no tier. Cells 1..N: LRU tier at increasing memory power.
  const double watts_per_gib[] = {0.1, 0.375, 1.0, 4.0};
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
  for (const double w : watts_per_gib) {
    cache::CacheConfig cc;
    cc.capacity_blocks = 1024;      // 512 MiB read cache
    cc.dirty_capacity_blocks = 256; // 128 MiB write-back buffer
    cc.memory_watts_per_gib = w;
    make_cell(runner::ExperimentBuilder(base).cache(cc).build(),
              "lru/" + std::to_string(w).substr(0, 5));
  }

  runner::SweepOptions opts;
  opts.progress = &std::cerr;
  const auto results = runner::SweepRunner(opts).run(std::move(cells));

  runner::ResultTable t(
      "Ablation: cache & destage tier vs none, 30% writes, rf=3",
      {"mode", "mem_w_gib", "disk_energy_j", "mem_energy_j", "total_j",
       "spin_up+down", "mean_resp_s", "hit_ratio", "destaged",
       "piggyback_frac"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i].result;
    const auto& cs = r.cache_stats;
    const double mem_j = r.cache_enabled ? cs.memory_energy_joules : 0.0;
    const std::uint64_t batches = cs.destage_batches;
    t.row()
        .cell(i == 0 ? "off" : "lru")
        .cell(i == 0 ? 0.0 : watts_per_gib[i - 1], 3)
        .cell(r.total_energy())
        .cell(mem_j)
        .cell(r.total_energy() + mem_j)
        .cell(static_cast<unsigned long long>(r.total_spin_ups() +
                                              r.total_spin_downs()))
        .cell(r.mean_response(), 4)
        .cell(r.cache_enabled ? cs.hit_ratio() : 0.0, 4)
        .cell(static_cast<unsigned long long>(cs.destaged_blocks))
        .cell(batches > 0 ? static_cast<double>(cs.destage_piggyback) /
                                static_cast<double>(batches)
                          : 0.0,
              3);
  }
  t.emit(std::cout, runner::emit_format_from_env());
  std::cout << "\nExpected shape: the tier cuts disk energy and spin "
               "cycles at every memory-power point (hits never wake disks; "
               "destages ride foreground spin-ups), while total energy "
               "crosses back over the no-tier baseline once W/GiB prices "
               "the DRAM above the disk joules it saves.\n";
  return 0;
}
