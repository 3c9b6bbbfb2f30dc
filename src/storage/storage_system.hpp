// StorageSystem: wires the simulation kernel, disks, a power policy, a
// scheduler and the metrics collector into the Fig 1 architecture, and runs
// a trace through it under the online, batch or offline model.
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "cache/cache.hpp"
#include "core/scheduler.hpp"
#include "core/write_offload.hpp"
#include "disk/disk.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "obs/obs.hpp"
#include "placement/placement.hpp"
#include "power/policy.hpp"
#include "reliability/reliability.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "trace/trace.hpp"

namespace eas::storage {

struct SystemConfig {
  disk::DiskPowerParams power{};
  disk::DiskPerfParams perf{};
  /// Initial disk state. Standby matches the paper's experiments; the
  /// always-on baseline starts Idle (runners pick this automatically for
  /// AlwaysOnPolicy).
  disk::DiskState initial_state = disk::DiskState::Standby;
  /// Fault injection. Default-constructed (disabled) keeps the whole fault
  /// path dormant: no FailureView exists and results are bit-identical to
  /// builds without the subsystem.
  fault::FaultProfile fault{};
  /// Observability. Default-constructed (disabled) means no recorder or
  /// registry exists: every instrumentation site reduces to one null-pointer
  /// branch and results are bit-identical to pre-observability builds.
  obs::ObsConfig obs{};
  /// Cache & destage tier. Default-constructed (disabled) keeps the tier
  /// dormant — no cache objects exist and results are bit-identical to
  /// builds without the subsystem.
  cache::CacheConfig cache{};
  /// Request reliability tier (deadlines, deterministic retry, hedged
  /// reads, admission control). Default-constructed (disabled) keeps the
  /// tier dormant — no per-request state exists and results are
  /// bit-identical to builds without the subsystem.
  reliability::ReliabilityConfig reliability{};
};

/// Everything a run produces; the figures are all derived from this.
struct RunResult {
  std::string scheduler_name;
  std::string policy_name;
  double horizon = 0.0;  ///< accounting end time (seconds)
  std::vector<disk::DiskStats> disk_stats;
  stats::SampleStore response_times;
  std::uint64_t total_requests = 0;
  std::uint64_t requests_waited_spinup = 0;
  /// One flag and one stats struct per tier (see kTierReports). System sets
  /// the first three flags; run_online_mixed sets write_offload_enabled.
  bool faults_enabled = false;
  fault::FaultStats fault_stats{};
  bool cache_enabled = false;
  cache::CacheStats cache_stats{};
  bool reliability_enabled = false;
  reliability::ReliabilityStats reliability_stats{};
  bool write_offload_enabled = false;
  core::WriteOffloadStats write_offload_stats{};
  /// Present only when the run's ObsConfig asked for them; to_json() does
  /// not serialize either (the runner's trace/metrics exporters own those
  /// formats), so the result schema is untouched by observability.
  std::shared_ptr<const obs::TraceRecorder> trace_recorder;
  std::shared_ptr<const obs::MetricRegistry> metrics;

  double total_energy() const;
  std::uint64_t total_spin_ups() const;
  std::uint64_t total_spin_downs() const;
  double mean_response() const;
  /// Energy of the always-on configuration over the same horizon and fleet.
  double always_on_energy(const disk::DiskPowerParams& p) const;
  double normalized_energy(const disk::DiskPowerParams& p) const;
  /// Per-disk fraction of time in `state`, one entry per disk.
  std::vector<double> state_time_fractions(disk::DiskState state) const;

  /// Serializes the result as a single JSON object so it survives process
  /// boundaries (plotting scripts, result archives). Aggregates are always
  /// present; `include_disks` additionally emits the per-disk stats array.
  /// Keys are schema-stable — downstream consumers rely on them.
  std::string to_json(bool include_disks = false) const;
};

/// A number a tier reports: a count or a real.
using TierValue = std::variant<std::uint64_t, double>;

/// A JSON field, sweep column or metric of a tier. A count metric is a
/// counter and a real one a gauge; with no `value`, a metric is a summary
/// the run feeds and a column is the sweep's energy gap to the fault-free twin.
struct TierStat {
  const char* name;
  TierValue (*value)(const RunResult&) = nullptr;
  int precision = 3;  ///< aligned-table decimals of a real column
};

/// Everything one tier adds to a run's output, written once.
struct TierReport {
  const char* key;  ///< its object's key in RunResult::to_json
  bool RunResult::*enabled;
  std::vector<TierStat> fields;  ///< its JSON object, in order
  std::vector<TierStat> columns = {};
  std::vector<TierStat> metrics = {};
  bool blank_when_off = true;  ///< sweep rows without the tier: not zeros
};

/// The tiers in output order. RunResult::to_json, runner::emit_cells and the
/// run's metrics each walk it; a tier's output exists only where its flag is
/// set (sweep columns: on some OK cell), so tier-free output keeps its schema.
extern const std::vector<TierReport> kTierReports;

/// Executes `trace` with an online scheduler: each request is dispatched to
/// a disk the moment it arrives (§2.2 online model).
RunResult run_online(const SystemConfig& config,
                     const placement::PlacementMap& placement,
                     const trace::Trace& trace, core::OnlineScheduler& sched,
                     power::PowerPolicy& policy);

/// Executes `trace` under the batch model: arrivals queue and the batch is
/// assigned every sched.batch_interval_seconds().
RunResult run_batch(const SystemConfig& config,
                    const placement::PlacementMap& placement,
                    const trace::Trace& trace, core::BatchScheduler& sched,
                    power::PowerPolicy& policy);

/// Executes a precomputed offline assignment through the event simulator
/// under OraclePolicy (pre-spun disks, 2CPM-shaped spin-downs). Response
/// times contain pure service time except for clipped initial pre-spins.
RunResult run_offline(const SystemConfig& config,
                      const placement::PlacementMap& placement,
                      const trace::Trace& trace,
                      const core::OfflineAssignment& assignment,
                      const std::string& scheduler_name);

/// Convenience: the always-on baseline (disks start idle, never spin down,
/// static routing — routing is irrelevant to its energy).
RunResult run_always_on(const SystemConfig& config,
                        const placement::PlacementMap& placement,
                        const trace::Trace& trace);

/// Executes a mixed read/write trace under the online model: reads go
/// through `sched` (honouring any diversion the off-loader recorded for
/// freshly written blocks); writes go through `offloader` (§2.1's write
/// off-loading extension — see core/write_offload.hpp). Off-load statistics
/// accumulate in `offloader`.
RunResult run_online_mixed(const SystemConfig& config,
                           const placement::PlacementMap& placement,
                           const trace::Trace& trace,
                           core::OnlineScheduler& sched,
                           power::PowerPolicy& policy,
                           core::WriteOffloadManager& offloader);

}  // namespace eas::storage
