// Host-time spans around the calls the storage system makes into the
// scheduler and power-policy layers, taken from outside the library.
//
// traced() wraps a registry spec so the scheduler and power policy its
// factory builds are timing decorators around the real ones. The decorators
// forward every virtual the storage system calls, so a traced run produces
// the same RunResult (and fingerprint) as an untraced one; only host time
// changes. Whatever the spans do not cover — event kernel, disk model,
// tiers and glue — is the storage layer's residual.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "runner/registry.hpp"

namespace eas::bench {

using Clock = std::chrono::steady_clock;

/// Every call is counted; one in kSampleEvery, starting with the first, is
/// timed. A clock read costs about as much as a pick, so timing every call
/// would add more time than the layers being measured.
inline constexpr std::uint64_t kSampleEvery = 16;

/// Calls into one layer's entry points.
struct Span {
  std::uint64_t calls = 0;
  std::vector<Clock::duration> timed;  ///< durations of the sampled calls

  /// Estimated host time inside the layer over all calls, net of the one
  /// clock read (`clock_ns`) each timed interval holds besides the call.
  double seconds(double clock_ns) const;
};

/// What the traced rep learns about the layers under runner::run_cell.
struct LayerProbe {
  Span sched;
  /// Requests handed to the scheduler (1 per pick, the batch per assign,
  /// the whole trace per offline schedule).
  std::uint64_t sched_requests = 0;

  Span policy_idle;
  Span policy_activity;

  /// MwisOfflineScheduler diagnostics; zero for the other schedulers.
  std::uint64_t graph_nodes = 0;
  std::uint64_t graph_edges = 0;
  std::uint64_t graph_selected = 0;
};

/// `base` with its factory wrapped: every scheduler and power policy it
/// builds reports into `probe`, which must outlive the runs.
runner::SchedulerSpec traced(const runner::SchedulerSpec& base,
                             LayerProbe& probe);

}  // namespace eas::bench
