// 2CPM: the 2-competitive fixed-threshold power management scheme.
//
// A disk that stays idle for the breakeven time T_B = E_up/down / P_I is spun
// down (Irani et al.); this is provably within 2x of the offline-optimal
// energy for any arrival sequence. The threshold can be overridden (as a
// multiple of breakeven) for the power-policy ablation bench.
#pragma once

#include <vector>

#include "power/policy.hpp"

namespace eas::power {

class FixedThresholdPolicy final : public PowerPolicy {
 public:
  /// @param threshold_seconds  idleness threshold; negative means "use each
  ///        disk's own breakeven time" (the 2CPM setting).
  explicit FixedThresholdPolicy(double threshold_seconds = -1.0)
      : threshold_(threshold_seconds) {}

  std::string name() const override;

  void on_run_start(sim::Simulator& sim,
                    const std::vector<disk::Disk*>& disks) override;
  void on_disk_idle(sim::Simulator& sim, disk::Disk& d) override;
  void on_disk_activity(sim::Simulator& sim, disk::Disk& d) override;

  double threshold_for(const disk::Disk& d) const;

 private:
  double threshold_;
  SpinDownTimers timers_;
};

}  // namespace eas::power
