// Disk power-management policies.
//
// A PowerPolicy owns the *spin-down* decision (and, for the oracle, advance
// spin-ups). Spin-up on request arrival is the disk's own job — hardware
// wakes when addressed — so policies only react to idle/activity
// notifications from the storage system.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "disk/disk.hpp"
#include "fault/failure_view.hpp"
#include "sim/simulator.hpp"

namespace eas::power {

class PowerPolicy {
 public:
  virtual ~PowerPolicy() = default;

  virtual std::string name() const = 0;

  /// Fault path: gives the policy visibility into rebuild pins. While a
  /// disk's rebuild_in_progress() is set the policy must not spin it down —
  /// re-replication traffic targets it and every spin-down would stall the
  /// repair behind a wake cycle. Null (the default) means fault-free.
  /// Composite policies forward the view to their delegates.
  virtual void set_failure_view(const fault::FailureView* fv) {
    failure_view_ = fv;
  }

  /// Cache path: lets the policy see dirty-set pressure (pending destage
  /// blocks per disk) without depending on the cache layer. A disk with
  /// pending destage work is about to receive internal writes, so spinning
  /// it down would waste a wake cycle; FixedThreshold defers its timer
  /// while the count is nonzero. Unset (the default) means no cache tier.
  /// Composite policies forward the probe to their delegates.
  using DestageProbe = std::function<std::uint64_t(DiskId)>;
  virtual void set_destage_probe(DestageProbe probe) {
    destage_probe_ = std::move(probe);
  }

  /// Reliability path: lets the policy see hedged in-flight pairs per disk
  /// without depending on the reliability layer. A disk holding the hedge
  /// copy of a still-racing read must not spin down — the cancel-the-loser
  /// bookkeeping assumes both copies stay dispatched until one completes.
  /// Unset (the default) means no reliability tier. Composite policies
  /// forward the probe to their delegates.
  using HedgeProbe = std::function<std::uint64_t(DiskId)>;
  virtual void set_hedge_probe(HedgeProbe probe) {
    hedge_probe_ = std::move(probe);
  }

  /// Called once before any request is injected. `disks` outlive the run.
  virtual void on_run_start(sim::Simulator& sim,
                            const std::vector<disk::Disk*>& disks) {
    (void)sim;
    (void)disks;
  }

  /// Called when `d` transitions into Idle (queue drained / woke up empty).
  virtual void on_disk_idle(sim::Simulator& sim, disk::Disk& d) {
    (void)sim;
    (void)d;
  }

  /// Called when a request is about to be submitted to `d`; policies cancel
  /// any pending spin-down decision for the disk here.
  virtual void on_disk_activity(sim::Simulator& sim, disk::Disk& d) {
    (void)sim;
    (void)d;
  }

 protected:
  /// True when the fault subsystem pins k active right now.
  bool spin_down_blocked(DiskId k) const {
    return failure_view_ != nullptr && failure_view_->rebuild_in_progress(k);
  }

  /// Dirty blocks awaiting destage onto k; 0 without a cache tier.
  std::uint64_t pending_destage(DiskId k) const {
    return destage_probe_ ? destage_probe_(k) : 0;
  }

  /// Hedged in-flight pairs touching k; 0 without a reliability tier.
  std::uint64_t pending_hedges(DiskId k) const {
    return hedge_probe_ ? hedge_probe_(k) : 0;
  }

 private:
  const fault::FailureView* failure_view_ = nullptr;
  DestageProbe destage_probe_;
  HedgeProbe hedge_probe_;
};

/// One pending spin-down timer per disk, for the policies that arm one on
/// every idle gap and cancel it on the next arrival. Each disk's timer
/// rides the simulator's delay lane for that disk's idle threshold
/// (DESIGN.md §8), so both are O(1). Lane ids and handles belong to one
/// simulator: on_run_start calls reset() and binds every disk; a policy
/// driven directly, without a run, binds a disk on its first arm.
class SpinDownTimers {
 public:
  void reset() {
    timers_.clear();
    lanes_.clear();
  }

  /// Resolves disk k's lane for `delay`, unless k already has one. A
  /// disk's delay must not change within a run.
  void bind(sim::Simulator& sim, DiskId k, double delay) {
    if (k >= lanes_.size()) {
      lanes_.resize(k + 1, kNoLane);
      timers_.resize(k + 1);
    }
    if (lanes_[k] == kNoLane) lanes_[k] = sim.delay_lane(delay);
  }

  /// Replaces disk k's pending timer with `fn`, due `delay` from now.
  template <typename F>
  void arm(sim::Simulator& sim, DiskId k, double delay, F&& fn) {
    bind(sim, k, delay);
    sim.cancel(timers_[k]);
    timers_[k] = sim.schedule_on(lanes_[k], std::forward<F>(fn));
  }

  /// Cancels disk k's pending timer. True if one was still pending (it may
  /// already have fired: the disk spun down and is being woken).
  bool cancel(sim::Simulator& sim, DiskId k) {
    if (k >= timers_.size()) return false;  // never armed
    const bool cancelled = sim.cancel(timers_[k]);
    timers_[k] = {};
    return cancelled;
  }

 private:
  static constexpr sim::Simulator::LaneId kNoLane = ~sim::Simulator::LaneId{0};
  std::vector<sim::EventHandle> timers_;
  std::vector<sim::Simulator::LaneId> lanes_;
};

/// Baseline "always-on" configuration (the paper's normalisation target):
/// disks never spin down. The storage system starts disks in Idle when this
/// policy is selected, so they burn P_I for the whole run.
class AlwaysOnPolicy final : public PowerPolicy {
 public:
  std::string name() const override { return "always-on"; }
};

}  // namespace eas::power
