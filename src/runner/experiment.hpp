// Experiment configuration shared by the benches, tests and examples.
//
// Encapsulates the paper's §4 setup: a 180-disk system, Cheetah/Barracuda
// disk parameters, 2CPM power management, Zipf-original/uniform-replica
// placement and 70k-request workloads. Promoted out of bench/ so that the
// sweep runner, the scheduler registry and every harness agree on one
// validated parameter set.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "cache/cache.hpp"
#include "core/energy_model.hpp"
#include "disk/disk.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "placement/placement.hpp"
#include "reliability/reliability.hpp"
#include "storage/storage_system.hpp"
#include "trace/trace.hpp"

namespace eas::runner {

// ---------------------------------------------------------------------------
// Workloads (§4.1). The name table is the single source of truth: benches,
// CLI flags and result files all round-trip through it.

enum class Workload { kCello, kFinancial };

inline constexpr Workload kAllWorkloads[] = {Workload::kCello,
                                             Workload::kFinancial};

const char* to_string(Workload w);
std::optional<Workload> workload_from_string(std::string_view name);

// ---------------------------------------------------------------------------
// Parameters.

/// One experiment configuration (defaults = the paper's primary setup).
/// Construct directly for the defaults or through ExperimentBuilder for
/// validated edits; run_cell()/SweepRunner validate() again before running.
struct ExperimentParams {
  Workload workload = Workload::kCello;
  std::uint64_t trace_seed = 1;
  std::size_t num_requests = 70000;  ///< §4.1

  DiskId num_disks = 180;            ///< §4.2
  unsigned replication_factor = 3;
  double zipf_z = 1.0;               ///< original-location skew
  std::uint64_t placement_seed = 42;

  core::CostParams cost{};           ///< §4.3: alpha=0.2, beta=100
  double batch_interval = 0.1;       ///< §4.3: 0.1 s WSC batching
  std::size_t mwis_horizon = 4;      ///< conflict-graph successor horizon
  std::size_t mwis_refine_passes = 8;

  /// Initial disk state. Standby matches the paper's experiments; the
  /// covering-subset ablation starts Idle (pinned disks boot first).
  disk::DiskState initial_state = disk::DiskState::Standby;

  /// Fault injection (default: disabled, bit-identical to a build without
  /// the fault subsystem). Travels into SystemConfig for every run of the
  /// cell; emitters add availability columns when any cell enables it.
  fault::FaultProfile fault{};

  /// Observability (default: everything off — no recorder, no registry,
  /// bit-identical results). Travels into SystemConfig like `fault`.
  obs::ObsConfig obs{};

  /// Cache & destage tier (default: disabled, bit-identical to a build
  /// without the subsystem). Travels into SystemConfig like `fault`;
  /// emitters add hit/destage/memory-energy columns when any cell enables
  /// it.
  cache::CacheConfig cache{};

  /// Request reliability tier (default: disabled, bit-identical to a build
  /// without the subsystem). Travels into SystemConfig like `fault`;
  /// emitters add deadline-miss/retry/hedge/shed columns when any cell
  /// enables it.
  reliability::ReliabilityConfig reliability{};

  /// Throws InvariantError on out-of-range values (rf outside 1..num_disks,
  /// zipf_z outside [0,1], non-positive batch interval, invalid fault
  /// profile, ...).
  void validate() const;
};

/// Fluent, validating constructor for ExperimentParams. build() runs
/// validate(), so a grid declaration cannot silently produce a nonsense
/// cell. Example:
///
///   const auto p = ExperimentBuilder(Workload::kCello)
///                      .requests(requests_from_env())
///                      .replication(rf)
///                      .zipf_z(z)
///                      .build();
class ExperimentBuilder {
 public:
  ExperimentBuilder() = default;
  explicit ExperimentBuilder(Workload w) { p_.workload = w; }
  /// Starts from an existing configuration (for derived sweep cells).
  explicit ExperimentBuilder(ExperimentParams base) : p_(base) {}

  ExperimentBuilder& workload(Workload w) { p_.workload = w; return *this; }
  ExperimentBuilder& trace_seed(std::uint64_t s) { p_.trace_seed = s; return *this; }
  ExperimentBuilder& requests(std::size_t n) { p_.num_requests = n; return *this; }
  ExperimentBuilder& disks(DiskId n) { p_.num_disks = n; return *this; }
  ExperimentBuilder& replication(unsigned rf) { p_.replication_factor = rf; return *this; }
  ExperimentBuilder& zipf_z(double z) { p_.zipf_z = z; return *this; }
  ExperimentBuilder& placement_seed(std::uint64_t s) { p_.placement_seed = s; return *this; }
  ExperimentBuilder& cost(core::CostParams c) { p_.cost = c; return *this; }
  ExperimentBuilder& alpha(double a) { p_.cost.alpha = a; return *this; }
  ExperimentBuilder& beta(double b) { p_.cost.beta = b; return *this; }
  ExperimentBuilder& batch_interval(double s) { p_.batch_interval = s; return *this; }
  ExperimentBuilder& mwis(std::size_t horizon, std::size_t refine_passes) {
    p_.mwis_horizon = horizon;
    p_.mwis_refine_passes = refine_passes;
    return *this;
  }
  ExperimentBuilder& initial_state(disk::DiskState s) { p_.initial_state = s; return *this; }
  ExperimentBuilder& fault(fault::FaultProfile f) { p_.fault = std::move(f); return *this; }
  /// Enables the cache & destage tier with the given configuration (asking
  /// for one implies enabling it). Runs CacheConfig::validate() eagerly, at
  /// the call site, and rethrows its verdict as std::invalid_argument
  /// naming the offending `cache.<field>`, so a grid declaration fails on
  /// the bad line rather than at build().
  ExperimentBuilder& cache(cache::CacheConfig c);
  /// Enables the request reliability tier (deadlines, deterministic retry/
  /// backoff, hedged reads, admission control); asking for one implies
  /// enabling it. Same eager check as cache(), through
  /// ReliabilityConfig::validate() (`reliability.<field>`).
  ExperimentBuilder& reliability(reliability::ReliabilityConfig c);
  /// Enables structured tracing with the given recorder configuration
  /// (asking for a trace implies enabling it; pass categories/capacity as
  /// needed). build() validates the config.
  ExperimentBuilder& trace(obs::TraceConfig t) {
    t.enabled = true;
    p_.obs.trace = t;
    return *this;
  }
  /// Enables (or disables) the per-run MetricRegistry.
  ExperimentBuilder& metrics(bool on = true) { p_.obs.metrics = on; return *this; }
  /// Convenience for the canonical degraded-mode experiment: fail-stop disk
  /// `disk` at `time`, replacement online after `repair` seconds (0 = never).
  /// Throws std::invalid_argument naming the offending argument on NaN/Inf/
  /// negative time or repair.
  ExperimentBuilder& fail_disk_at(DiskId disk, double time, double repair = 0.0);

  /// Validates and returns the parameter set (throws InvariantError).
  ExperimentParams build() const;

 private:
  ExperimentParams p_;
};

// ---------------------------------------------------------------------------
// Derived experiment inputs.

/// The calibrated synthetic stand-in for the named trace (see DESIGN.md §1).
trace::Trace make_workload(Workload w, std::uint64_t seed,
                           std::size_t num_requests = 70000);

/// Shared-ownership variant for sweep cells: concurrent cells read one
/// immutable trace without copying it.
std::shared_ptr<const trace::Trace> make_shared_workload(
    const ExperimentParams& p);

placement::PlacementMap make_placement(const ExperimentParams& p);
std::shared_ptr<const placement::PlacementMap> make_shared_placement(
    const ExperimentParams& p);

/// §4: Cheetah 15K.5 service model + Barracuda power model, disks initially
/// standby (or `p.initial_state` when built from params).
storage::SystemConfig paper_system_config();
storage::SystemConfig system_config_for(const ExperimentParams& p);

/// Header line identifying an experiment (workload, fleet, seeds).
std::string describe(const ExperimentParams& p);

/// Number of requests honoured by the fig benches: the EAS_REQUESTS
/// environment variable when set (for quick shape checks), else `fallback`.
std::size_t requests_from_env(std::size_t fallback = 70000);

/// Worker count for sweeps: EAS_THREADS when set (>= 1), else the hardware
/// concurrency (at least 1).
std::size_t threads_from_env();

}  // namespace eas::runner
