// SweepRunner: parallel, deterministic execution of experiment grids.
//
// Every figure/ablation bench is a grid of independent (scheduler × params)
// cells. A cell names a spec in the runner's SchedulerRegistry and runs
// through run_cell — the only way to run one — which builds its own
// Simulator/StorageSystem/scheduler/policy from the cell's seeds, so results
// are bit-identical regardless of thread count or completion order. The
// runner resolves every cell's name before any cell starts, fans the grid
// out over a bounded pool of worker threads that claim cells from one shared
// cursor, shares the immutable trace/placement inputs across cells
// (shared_ptr, no copies), captures per-cell wall time and the process RSS
// high-water mark, and cancels remaining cells on the first failure.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "runner/registry.hpp"

namespace eas::runner {

/// One cell of a sweep grid. `scheduler` names a spec in the registry the
/// runner was given; `tag` is an opaque caller label (the axis value) that
/// rides through to the result and the emitters. `trace`/`placement` may be
/// pre-built and shared across cells; the runner builds (and caches) them
/// from `params` when null.
struct CellSpec {
  std::string scheduler;
  ExperimentParams params;
  std::string tag;

  std::shared_ptr<const trace::Trace> trace;
  std::shared_ptr<const placement::PlacementMap> placement;
};

enum class CellStatus {
  kOk,
  kFailed,   ///< the cell threw; `error` holds the message
  kSkipped,  ///< cancelled before starting (a previous cell failed)
};

struct CellResult {
  std::size_t index = 0;  ///< position in the submitted grid
  CellSpec spec;
  CellStatus status = CellStatus::kSkipped;
  storage::RunResult result;
  std::string error;
  double wall_seconds = 0.0;
  /// Process peak RSS (KiB) observed after the cell finished — a monotone
  /// high-water mark, not a per-cell delta.
  long peak_rss_kib = 0;
};

struct SweepOptions {
  /// Worker threads; 0 → threads_from_env() (EAS_THREADS or hardware).
  std::size_t threads = 0;
  /// Stop launching new cells once any cell fails.
  bool cancel_on_failure = true;
  /// Rethrow the first failure from run() after all workers joined. When
  /// false, failures are only reported through CellResult::status.
  bool rethrow_failure = true;
  /// When set, one "# sweep: ..." summary line is written here after the
  /// run (benches point this at stderr).
  std::ostream* progress = nullptr;
};

/// Executes a grid of cells on a pool of worker threads, each claiming the
/// next unstarted cell. Results come back in submission order.
/// Deterministic: a cell's RunResult depends only on its spec, never on
/// scheduling.
class SweepRunner {
 public:
  /// Uses the shared paper roster.
  explicit SweepRunner(SweepOptions opts = {});
  /// Uses a caller-extended registry (kept by reference; must outlive the
  /// runner).
  SweepRunner(const SchedulerRegistry& registry, SweepOptions opts);

  std::vector<CellResult> run(std::vector<CellSpec> cells);

  std::size_t threads() const { return threads_; }
  const SchedulerRegistry& registry() const { return registry_; }

 private:
  const SchedulerRegistry& registry_;
  SweepOptions opts_;
  std::size_t threads_;
};

/// Convenience: the common (axis × scheduler) product grid. For every tag in
/// `axis` the supplied `configure` hook derives that axis point's params from
/// `base`, and one cell per scheduler name is emitted (all sharing the trace
/// and placement the runner builds for those params).
std::vector<CellSpec> product_grid(
    const ExperimentParams& base, const std::vector<std::string>& schedulers,
    const std::vector<std::string>& axis,
    const std::function<ExperimentParams(const ExperimentParams& base,
                                         const std::string& tag)>& configure);

/// Looks up the first result with the given tag and scheduler name; throws
/// InvariantError when absent (grid/lookup mismatch is a harness bug).
const CellResult& find_cell(const std::vector<CellResult>& results,
                            std::string_view tag, std::string_view scheduler);

}  // namespace eas::runner
