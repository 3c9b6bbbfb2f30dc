#include "power/fixed_threshold.hpp"

#include <cmath>
#include <sstream>

#include "obs/trace_recorder.hpp"

namespace eas::power {

std::string FixedThresholdPolicy::name() const {
  if (threshold_ < 0.0) return "2cpm";
  std::ostringstream os;
  os << "threshold(" << threshold_ << "s)";
  return os.str();
}

double FixedThresholdPolicy::threshold_for(const disk::Disk& d) const {
  return threshold_ < 0.0 ? d.power_params().breakeven_seconds() : threshold_;
}

void FixedThresholdPolicy::on_run_start(sim::Simulator& sim,
                                        const std::vector<disk::Disk*>& disks) {
  timers_.reset();
  for (const disk::Disk* d : disks) {
    timers_.bind(sim, d->id(), threshold_for(*d));
  }
}

void FixedThresholdPolicy::on_disk_idle(sim::Simulator& sim, disk::Disk& d) {
  // A disk pinned by an in-progress rebuild stays spinning; the pin release
  // re-enters via on_disk_idle when the rebuild's last write completes.
  if (spin_down_blocked(d.id())) return;
  // A disk with dirty blocks awaiting destage is about to receive internal
  // writes (the cache tier piggybacks on this very idle transition);
  // arming a spin-down now would only race it. The destage's completion
  // re-enters via on_disk_idle once the group is flushed.
  if (pending_destage(d.id()) > 0) return;
  // A disk pinned by a hedged in-flight pair is about to receive (or is
  // racing) a hedge copy; spinning it down would price a full wake cycle
  // into the very tail latency the hedge exists to cut. The pin release
  // re-enters via on_disk_idle.
  if (pending_hedges(d.id()) > 0) return;
  EAS_OBS(sim.recorder(),
          policy_event(sim.now(), obs::Ev::kPolicyArm, d.id(),
                       static_cast<std::uint64_t>(
                           std::llround(threshold_for(d) * 1e6))));
  disk::Disk* dp = &d;
  // Replaces any stale timer: the disk has begun a fresh idle period.
  timers_.arm(sim, d.id(), threshold_for(d), [this, dp] {
    // The activity hook cancels this event whenever work arrives, so the
    // disk must still be idle; the check is a cheap belt-and-braces. The
    // pin can appear between arming and firing, so it is re-checked.
    if (dp->state() == disk::DiskState::Idle && dp->queued_requests() == 0 &&
        !spin_down_blocked(dp->id()) && pending_hedges(dp->id()) == 0) {
      dp->spin_down();
    }
  });
}

void FixedThresholdPolicy::on_disk_activity(sim::Simulator& sim,
                                            disk::Disk& d) {
  // Only report a cancel when one actually happened: the timer may have
  // already fired (disk spun down and is being woken).
  if (timers_.cancel(sim, d.id())) {
    EAS_OBS(sim.recorder(),
            policy_event(sim.now(), obs::Ev::kPolicyCancel, d.id()));
  }
}

}  // namespace eas::power
