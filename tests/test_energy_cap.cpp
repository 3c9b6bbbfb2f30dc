// Tests for the idle-extension cap in Eq. 5 (see energy_model.cpp): under
// 2CPM a disk never idles past breakeven, so the cap is invisible there;
// under pinning/oracle policies it keeps long-idle disks from looking more
// expensive than waking a sleeping one.
#include <gtest/gtest.h>

#include "core/energy_model.hpp"

namespace eas::core {
namespace {

disk::DiskPowerParams power() {
  disk::DiskPowerParams p;
  p.idle_watts = 10.0;
  p.active_watts = 12.0;
  p.standby_watts = 1.0;
  p.spinup_watts = 20.0;
  p.spindown_watts = 10.0;
  p.spinup_seconds = 6.0;
  p.spindown_seconds = 4.0;  // breakeven 16 s, wake cycle 320 J
  return p;
}

TEST(IdleCap, BelowBreakevenTheCapIsInvisible) {
  disk::DiskStatus s;
  s.state = disk::DiskState::Idle;
  s.last_request_time = 100.0;
  for (double dt : {0.0, 1.0, 8.0, 15.9}) {
    EXPECT_DOUBLE_EQ(marginal_energy_cost(s, 100.0 + dt, power()),
                     dt * power().idle_watts);
  }
}

TEST(IdleCap, LongIdleDisksCostAtMostOneWakeCycle) {
  disk::DiskStatus s;
  s.state = disk::DiskState::Idle;
  s.last_request_time = 0.0;
  const double cap = power().transition_energy() +
                     power().breakeven_seconds() * power().idle_watts;
  for (double now : {32.0, 100.0, 10000.0}) {
    EXPECT_DOUBLE_EQ(marginal_energy_cost(s, now, power()), cap);
  }
}

TEST(IdleCap, PinnedIdleDiskNeverBeatenByStandby) {
  // The property that motivated the cap: at any idle age, scheduling on the
  // idle disk must cost no more than waking a standby disk.
  disk::DiskStatus idle;
  idle.state = disk::DiskState::Idle;
  idle.last_request_time = 0.0;
  disk::DiskStatus standby;
  standby.state = disk::DiskState::Standby;
  for (double now = 0.5; now < 200.0; now += 0.5) {
    EXPECT_LE(marginal_energy_cost(idle, now, power()),
              marginal_energy_cost(standby, now, power()) + 1e-12)
        << "now=" << now;
  }
}

TEST(IdleCap, CostIsMonotoneNonDecreasingInIdleAge) {
  disk::DiskStatus s;
  s.state = disk::DiskState::Idle;
  s.last_request_time = 0.0;
  double prev = 0.0;
  for (double now = 0.0; now < 100.0; now += 0.25) {
    const double c = marginal_energy_cost(s, now, power());
    EXPECT_GE(c, prev - 1e-12);
    prev = c;
  }
}

}  // namespace
}  // namespace eas::core
