// Per-request reliability bookkeeping.
//
// One RequestState accompanies every in-flight foreground request while the
// tier is enabled. It carries the shared attempt budget (deadline retries
// and fault failover draw from the same counter, so a fault during a retry
// never double-spends), the live deadline / hedge timer handles, and the
// identity of the hedge copy's target. Timer handles are sim::EventHandle —
// generation-checked, so cancelling after the event already fired (the
// completion-vs-timeout race) is a safe no-op rather than a use-after-free
// of a recycled slot.
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"
#include "util/ids.hpp"

namespace eas::reliability {

struct RequestState {
  /// Dispatches spent so far (first dispatch = 1). Compared against
  /// ReliabilityConfig::max_attempts by both the deadline-retry path and
  /// the fault-failover path.
  std::uint32_t attempts = 0;

  /// Disk currently serving the primary copy.
  DiskId primary = kInvalidDisk;

  /// Disk serving the hedge copy, kInvalidDisk while no hedge is in flight.
  DiskId hedge_disk = kInvalidDisk;

  /// Disk pinned for a *planned* hedge while the hedge timer runs (the
  /// power policy keeps it warm through the delay window); kInvalidDisk
  /// once the timer fires or the plan is cancelled.
  DiskId hedge_planned = kInvalidDisk;

  /// Pending per-attempt deadline event (null when deadlines are off).
  sim::EventHandle deadline;

  /// Pending hedge-dispatch event (null once fired or for writes).
  sim::EventHandle hedge_timer;

  /// True while a backoff wait is scheduled; the hedge path skips hedging a
  /// request that is between attempts (nothing is in flight to hedge).
  bool retry_scheduled = false;
};

}  // namespace eas::reliability
