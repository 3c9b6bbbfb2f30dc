// Request reliability tier: configuration and counters.
//
// The paper's schedulers trade energy against response time, but a bare
// simulator treats every request as fire-and-forget: a request stuck behind
// a transient fault or an overloaded spun-down disk waits forever. This
// tier bounds tail latency the way production storage stacks do:
//
//   * Per-request deadlines — a simulator timeout event fires if an attempt
//     has not completed within `deadline_seconds`; generation-checked
//     handles make the cancel-on-completion race-free.
//   * Deterministic retry — capped exponential backoff whose jitter is a
//     pure function of (seed, request id, attempt) over the seeded
//     util::Rng streams (retry_policy.hpp), with a max-attempt budget that
//     is *shared* with fault failover so a fault + a timeout never
//     double-spend attempts.
//   * Hedged reads — after `hedge_delay_seconds` a second copy of a still
//     in-flight read is dispatched to an alternate live replica; the first
//     completion wins and the loser is cancelled deterministically.
//   * Admission control — bounded per-disk queues with watermark
//     backpressure (schedulers bias away from backpressured disks) and a
//     shed-oldest-read / write-through degradation mode under overload, so
//     queues stay bounded instead of growing without bound.
//
// Everything is seed-driven: backoff jitter, hedge cancellation, and shed
// order are pure functions of the configured seed and the request stream,
// so sweep results stay bit-identical at any EAS_THREADS.
#pragma once

#include <cstdint>

namespace eas::reliability {

struct ReliabilityConfig {
  /// Master switch. Disabled (the default) keeps the whole tier dormant: no
  /// per-request state exists, every instrumentation point is one branch,
  /// and results and output are byte-identical to pre-reliability builds.
  bool enabled = false;

  /// Per-attempt deadline (seconds). 0 disables deadlines (and with them
  /// retries — a request that never times out is never retried).
  double deadline_seconds = 0.0;

  /// Total dispatch budget per request, shared between deadline retries and
  /// fault failover re-dispatches. 1 means "never retry".
  std::uint32_t max_attempts = 3;

  /// Capped exponential backoff: attempt k waits
  /// min(cap, base * 2^(k-1)) * (1 - jitter_fraction * u) where u in [0,1)
  /// is drawn from a per-(request, attempt) seeded stream.
  double backoff_base_seconds = 0.010;
  double backoff_cap_seconds = 1.0;
  double jitter_fraction = 0.5;  ///< in [0, 1]

  /// Seed for the jitter streams; independent of trace / placement seeds.
  std::uint64_t seed = 0x5eedull;

  /// Hedge delay for reads (seconds). 0 disables hedging. A still
  /// in-flight read older than this dispatches a second copy to an
  /// alternate live replica; first completion wins.
  double hedge_delay_seconds = 0.0;

  /// Bounded per-disk queue depth for admission control. 0 = unbounded
  /// (no shedding, no backpressure).
  std::uint32_t max_queue_depth = 0;

  /// Fraction of max_queue_depth at which a disk is reported as
  /// backpressured to the schedulers (cost/predictive bias away from it).
  /// In (0, 1]. Only meaningful when max_queue_depth > 0.
  double backpressure_watermark = 0.75;

  /// Throws InvariantError naming the field (`reliability.<field>`) on
  /// nonsense: NaN/Inf anywhere, negative delays, a backoff cap below its
  /// base, zero attempts, jitter outside [0,1], watermark outside [0,1] (or
  /// 0 with a queue bound). The one rule set: ExperimentBuilder::
  /// reliability() applies it too. Disabled configs are never checked.
  void validate() const;
};

/// One run's reliability counters; surfaced in RunResult (and its JSON /
/// sweep columns) only when the tier is enabled.
struct ReliabilityStats {
  std::uint64_t deadline_misses = 0;  ///< attempts that hit the deadline
  std::uint64_t retries = 0;          ///< re-dispatches after a miss
  std::uint64_t hedges_issued = 0;    ///< second copies dispatched
  std::uint64_t hedge_wins = 0;       ///< requests whose hedge finished first
  std::uint64_t shed = 0;             ///< reads dropped by admission control
  std::uint64_t writes_degraded = 0;  ///< writes admitted past a full queue
  std::uint64_t abandoned = 0;        ///< requests that exhausted the budget
};

}  // namespace eas::reliability
