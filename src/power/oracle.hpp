// Oracle power policy for the offline scheduling model.
//
// §2.2 offline assumptions: the scheduler knows all arrival times, so disks
// are spun up in advance (or kept idle) and requests never wait on a power
// transition. Spin-downs still follow the 2CPM shape — a disk waits the
// breakeven time and only then spins down (Lemma 1 case I) — and, when the
// next arrival falls inside the saving window T_B + T_up + T_down, the disk
// stays idle straight through (cases II/III).
//
// The policy is fed the per-disk dispatch times of an already-computed
// offline assignment before the run starts.
#pragma once

#include <vector>

#include "power/policy.hpp"

namespace eas::power {

class OraclePolicy final : public PowerPolicy {
 public:
  /// `arrivals_by_disk[k]` must be the ascending dispatch times of every
  /// request the offline schedule assigns to disk k. `pre_spin_margin` pads
  /// each advance spin-up so it completes strictly before the arrival
  /// (zero margin would tie with the arrival event and the request would
  /// momentarily observe a spinning-up disk).
  explicit OraclePolicy(std::vector<std::vector<sim::SimTime>> arrivals_by_disk,
                        double pre_spin_margin = 1e-3);

  std::string name() const override { return "oracle"; }

  void on_run_start(sim::Simulator& sim,
                    const std::vector<disk::Disk*>& disks) override;
  void on_disk_idle(sim::Simulator& sim, disk::Disk& d) override;
  void on_disk_activity(sim::Simulator& sim, disk::Disk& d) override;

 private:
  /// Next known arrival for disk k strictly after `now`, or +inf.
  sim::SimTime next_arrival(DiskId k, sim::SimTime now);

  std::vector<std::vector<sim::SimTime>> arrivals_;
  double pre_spin_margin_;
  std::vector<std::size_t> cursor_;
  SpinDownTimers spin_down_timers_;
};

}  // namespace eas::power
