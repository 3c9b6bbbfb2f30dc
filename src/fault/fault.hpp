// Fault model: what can break, when, and what the run records about it.
//
// The paper's premise is that replication is an energy lever *because* it is
// first a fault-tolerance mechanism; this module supplies the missing half.
// A FaultProfile describes per-disk stochastic failure/repair processes
// (Weibull time-to-failure, exponential repair — the standard disk
// reliability model) plus a scriptable injection schedule (fail disk d at
// time t, latent sector errors on a block range, transient timeouts). The
// profile travels inside ExperimentParams/SystemConfig; a default
// (disabled) profile leaves every existing run bit-identical.
//
// All randomness flows through the seeded util::Rng with one independent
// stream per disk, so fault times depend only on (seed, disk id) — never on
// event interleaving or thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "util/ids.hpp"

namespace eas::fault {

/// One scripted injection. Times are simulated seconds from run start.
struct ScriptedFault {
  enum class Kind {
    /// Disk dies at `time`: queued requests fail over, routing excludes it.
    /// If `duration` > 0 a replacement disk comes online after it and is
    /// rebuilt from surviving replicas; 0 means the disk never returns.
    kFailStop,
    /// Disk unreachable for `duration` seconds (controller timeout): queued
    /// requests fail over, but data is intact — no rebuild when it returns.
    kTransient,
    /// Blocks [data_lo, data_hi] on `disk` become unreadable (latent sector
    /// errors). A scrub detects and re-replicates them after `duration`
    /// seconds; 0 means they stay lost.
    kLatentSector,
  };

  Kind kind = Kind::kFailStop;
  double time = 0.0;
  DiskId disk = 0;
  double duration = 0.0;
  DataId data_lo = 0;  ///< kLatentSector only (inclusive)
  DataId data_hi = 0;  ///< kLatentSector only (inclusive)
};

/// Complete fault configuration for one run. Default-constructed == no
/// faults: enabled() is false and the whole degraded path is compiled out of
/// the run (null FailureView, zero overhead, bit-identical results).
struct FaultProfile {
  // --- stochastic whole-disk failures -----------------------------------
  /// Mean time to failure (Weibull scale), seconds; 0 disables the
  /// stochastic process. Real MTTFs are years; sweeps use minutes so the
  /// trace horizon actually sees failures.
  double mttf_seconds = 0.0;
  /// Weibull shape: 1 = memoryless (exponential), >1 = wear-out, <1 =
  /// infant mortality.
  double weibull_shape = 1.0;
  /// Mean time to repair (exponential), seconds; 0 = failed disks never
  /// return.
  double mttr_seconds = 0.0;

  // --- scripted injections ----------------------------------------------
  std::vector<ScriptedFault> script;

  // --- rebuild model ----------------------------------------------------
  /// Bytes copied per data item during a rebuild (one internal read on a
  /// surviving replica + one internal write on the returning disk, both
  /// competing with foreground I/O).
  std::uint64_t rebuild_bytes_per_item = 4u << 20;

  /// Seed for the per-disk failure/repair streams.
  std::uint64_t seed = 1;

  bool enabled() const { return mttf_seconds > 0.0 || !script.empty(); }

  /// Throws InvariantError on nonsense (negative times, script entries
  /// referencing disks outside the fleet, inverted block ranges, ...).
  void validate(DiskId num_disks) const;
};

/// What a degraded run records beyond the standard RunResult metrics.
/// Aggregated by the storage system + injector; emitted as the "faults"
/// JSON object and the availability columns of emit_cells.
struct FaultStats {
  std::uint64_t disk_failures = 0;        ///< fail-stop events (incl. stochastic)
  std::uint64_t transient_timeouts = 0;
  std::uint64_t latent_sector_events = 0;
  std::uint64_t repairs = 0;              ///< disks that came back
  /// Requests dropped because no live replica of their data existed.
  std::uint64_t unavailable_requests = 0;
  /// Failover events: a request served although a fault had removed one of
  /// its replicas (re-routed at dispatch, re-dispatched from a dying disk's
  /// queue, or scheduled around the dead replica to begin with).
  std::uint64_t failovers = 0;
  std::uint64_t rebuilds_completed = 0;
  std::uint64_t rebuild_bytes = 0;        ///< re-replication traffic volume
  /// Items a rebuild could not restore (no surviving replica at copy time).
  std::uint64_t rebuild_items_lost = 0;
  /// Wall time with >= 1 disk down/rebuilding or >= 1 block range lost.
  double degraded_seconds = 0.0;
  std::uint64_t degraded_episodes = 0;

  double mean_time_in_degraded() const {
    return degraded_episodes == 0
               ? 0.0
               : degraded_seconds / static_cast<double>(degraded_episodes);
  }
};

}  // namespace eas::fault
