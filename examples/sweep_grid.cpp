// Declaring and running an experiment grid on the parallel SweepRunner:
// the §4.3 roster over two replication factors, executed concurrently,
// with the same results no matter how many worker threads run it.
//
// Every run records metrics and a power/batch trace. The example prints the
// raw per-cell dump, the merged metrics line and a normalized-energy pivot,
// and writes one Chrome trace of the whole sweep next to them — load
// sweep_grid.trace.json in Perfetto to see each cell's per-disk power-state
// timeline.
//
//   $ ./sweep_grid                      # aligned table + metrics + trace
//   $ EAS_EMIT=json EAS_THREADS=8 ./sweep_grid
#include <fstream>
#include <iostream>

#include "runner/emit.hpp"
#include "runner/sweep.hpp"

using namespace eas;

int main() {
  // A validated parameter set (builder throws on nonsense values) scaled
  // down from the paper's 70k requests so the example finishes in seconds.
  // trace()/metrics() switch the recorder and registry on for every run of
  // every cell.
  const auto format = runner::emit_format_from_env();
  const auto base = runner::ExperimentBuilder(runner::Workload::kCello)
                        .requests(5000)
                        .trace({.categories = obs::cat_bit(obs::Cat::kPower) |
                                              obs::cat_bit(obs::Cat::kBatch),
                                .capacity = 1u << 15})
                        .metrics()
                        .build();

  // One cell per (rf, scheduler); every cell shares the same immutable
  // trace, and the two rf axis points each share one placement.
  auto cells = runner::product_grid(
      base, {"always-on", "static", "heuristic", "wsc", "mwis"}, {"1", "3"},
      [](const runner::ExperimentParams& b, const std::string& tag) {
        return runner::ExperimentBuilder(b)
            .replication(tag == "1" ? 1 : 3)
            .build();
      });

  runner::SweepOptions opts;
  opts.progress = &std::cerr;  // "# sweep: ..." summary line
  const auto results = runner::SweepRunner(opts).run(std::move(cells));

  // The raw per-cell dump in the selected format, the combined trace file,
  // then the merged metrics line.
  runner::emit_cells(std::cout, results, format);
  const char* trace_path = "sweep_grid.trace.json";
  std::ofstream trace_file(trace_path, std::ios::trunc);
  if (!trace_file) {
    std::cerr << "sweep_grid: cannot open trace file " << trace_path << "\n";
    return 1;
  }
  runner::write_chrome_trace(trace_file, results);
  std::cout << runner::merged_metrics(results).to_json() << "\n";

  // A figure-style pivot: rows = rf, cols = schedulers.
  const auto power = runner::paper_system_config().power;
  runner::ResultTable t("normalized energy",
                        {"rf", "always-on", "static", "heuristic", "wsc",
                         "mwis"});
  for (const std::string tag : {"1", "3"}) {
    t.row().cell(tag);
    for (const char* name :
         {"always-on", "static", "heuristic", "wsc", "mwis"}) {
      t.cell(runner::find_cell(results, tag, name)
                 .result.normalized_energy(power));
    }
  }
  t.emit(std::cout, format);
  return 0;
}
