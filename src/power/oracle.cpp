#include "power/oracle.hpp"

#include <algorithm>

namespace eas::power {

OraclePolicy::OraclePolicy(
    std::vector<std::vector<sim::SimTime>> arrivals_by_disk,
    double pre_spin_margin)
    : arrivals_(std::move(arrivals_by_disk)),
      pre_spin_margin_(pre_spin_margin),
      cursor_(arrivals_.size(), 0) {
  EAS_REQUIRE(pre_spin_margin_ >= 0.0);
  for (const auto& v : arrivals_) {
    EAS_REQUIRE_MSG(std::is_sorted(v.begin(), v.end()),
                  "oracle arrivals must be sorted per disk");
  }
}

sim::SimTime OraclePolicy::next_arrival(DiskId k, sim::SimTime now) {
  if (k >= arrivals_.size()) return sim::kTimeInfinity;
  const auto& v = arrivals_[k];
  std::size_t& c = cursor_[k];
  while (c < v.size() && v[c] <= now) ++c;
  return c < v.size() ? v[c] : sim::kTimeInfinity;
}

void OraclePolicy::on_run_start(sim::Simulator& sim,
                                const std::vector<disk::Disk*>& disks) {
  spin_down_timers_.reset();
  for (disk::Disk* d : disks) {
    const DiskId k = d->id();
    spin_down_timers_.bind(sim, k, d->power_params().breakeven_seconds());
    if (k >= arrivals_.size() || arrivals_[k].empty()) continue;
    const double t_up = d->power_params().spinup_seconds;
    const sim::SimTime wake =
        std::max(0.0, arrivals_[k].front() - t_up - pre_spin_margin_);
    sim.schedule_at(wake, [d] {
      if (d->state() == disk::DiskState::Standby) d->spin_up();
    });
  }
}

void OraclePolicy::on_disk_idle(sim::Simulator& sim, disk::Disk& d) {
  const auto& p = d.power_params();
  const sim::SimTime now = sim.now();
  const sim::SimTime next = next_arrival(d.id(), now);

  // Lemma 1 cases II/III: the successor lands inside the saving window, so
  // the profitable move is to stay idle until it arrives.
  if (next - now < p.saving_window_seconds()) return;

  // Rebuild pin: the disk must stay spinning whatever the oracle says.
  if (spin_down_blocked(d.id())) return;

  // Case I: wait out the breakeven time, spin down, and (if there is a
  // successor) spin back up just in time for it.
  disk::Disk* dp = &d;
  spin_down_timers_.arm(sim, d.id(), p.breakeven_seconds(), [this, dp] {
    if (dp->state() == disk::DiskState::Idle && dp->queued_requests() == 0 &&
        !spin_down_blocked(dp->id())) {
      dp->spin_down();
    }
  });
  if (next < sim::kTimeInfinity) {
    const sim::SimTime wake =
        std::max(now, next - p.spinup_seconds - pre_spin_margin_);
    sim.schedule_at(wake, [dp] { dp->spin_up(); });
  }
}

void OraclePolicy::on_disk_activity(sim::Simulator& sim, disk::Disk& d) {
  spin_down_timers_.cancel(sim, d.id());
}

}  // namespace eas::power
