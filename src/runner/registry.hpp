// SchedulerSpec registry: the single name → scheduler table.
//
// Every sweep cell names a spec, and run_cell is the one path from a spec to
// the storage system. A spec is a factory that builds a fresh,
// thread-confined bundle (scheduler, power policy, optional write
// off-loader) for one cell; which bundle member is set picks the §2.2
// execution model. The registry owns the canonical §4.3 roster and accepts
// bench-local extensions (threshold variants, predictive gammas, covering
// policies, write off-loading, ...): copy paper_roster() and add() them.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheduler.hpp"
#include "core/write_offload.hpp"
#include "power/policy.hpp"
#include "runner/experiment.hpp"
#include "storage/storage_system.hpp"

namespace eas::runner {

/// A freshly constructed scheduler + policy for one run. The member that is
/// set picks the storage::run_* entry point:
///   offline          → run_offline (under the OraclePolicy it derives)
///   batch + policy   → run_batch
///   online + policy  → run_online, or run_online_mixed with `offload`
///   nothing          → run_always_on (it fixes its own policy and state)
/// run_cell rejects any other combination, naming the spec. Instances are
/// thread-confined: SweepRunner calls the factory on the worker executing
/// the cell and never shares the bundle across cells.
struct SchedulerBundle {
  std::unique_ptr<core::OnlineScheduler> online;
  std::unique_ptr<core::BatchScheduler> batch;
  std::unique_ptr<core::OfflineScheduler> offline;
  std::unique_ptr<power::PowerPolicy> policy;
  /// §2.1 write off-loading for mixed read/write traces; online only.
  std::unique_ptr<core::WriteOffloadManager> offload;
};

struct SchedulerSpec {
  std::string name;
  /// One-line description shown by harness listings.
  std::string description;
  /// Builds the thread-confined scheduler+policy pair for one cell. Called
  /// with the cell's validated params and its (immutable, possibly shared)
  /// placement; must not capture mutable shared state.
  std::function<SchedulerBundle(const ExperimentParams&,
                                const placement::PlacementMap&)> make;
};

/// Ordered collection of specs. Copyable so a bench can start from the
/// paper roster and add its own variants without mutating global state.
class SchedulerRegistry {
 public:
  /// The six §4.3 rows: always-on, random, static, heuristic, wsc, mwis —
  /// in that canonical order.
  static SchedulerRegistry paper_roster();

  /// Shared immutable paper roster (most benches need nothing else).
  static const SchedulerRegistry& global();

  /// Appends a spec. Throws InvariantError on an empty or duplicate name or
  /// a missing factory.
  void add(SchedulerSpec spec);

  const SchedulerSpec* find(std::string_view name) const;
  /// Like find() but throws InvariantError listing the known names.
  const SchedulerSpec& at(std::string_view name) const;
  bool contains(std::string_view name) const { return find(name) != nullptr; }

  /// Registration order (the canonical row order for tables).
  std::vector<std::string> names() const;
  std::size_t size() const { return specs_.size(); }
  const std::vector<SchedulerSpec>& specs() const { return specs_; }

 private:
  std::vector<SchedulerSpec> specs_;
};

/// Executes one (spec × params) cell: builds the bundle, runs the trace
/// through the entry point its members pick and returns the result. Throws
/// InvariantError naming the spec on a malformed bundle. Deterministic in
/// the params' seeds — identical inputs give bit-identical results
/// regardless of the calling thread.
storage::RunResult run_cell(const SchedulerSpec& spec,
                            const ExperimentParams& p,
                            const trace::Trace& trace,
                            const placement::PlacementMap& placement);

/// Name-based convenience over `registry.at(name)`.
storage::RunResult run_cell(const SchedulerRegistry& registry,
                            std::string_view name, const ExperimentParams& p,
                            const trace::Trace& trace,
                            const placement::PlacementMap& placement);

}  // namespace eas::runner
