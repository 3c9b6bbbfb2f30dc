// Unit tests for the disk state machine, service model and energy meter.
#include <gtest/gtest.h>

#include <vector>

#include "disk/disk.hpp"
#include "sim/simulator.hpp"

namespace eas::disk {
namespace {

DiskPowerParams test_power() {
  DiskPowerParams p;
  p.idle_watts = 10.0;
  p.active_watts = 13.0;
  p.standby_watts = 1.0;
  p.spinup_watts = 20.0;
  p.spindown_watts = 10.0;
  p.spinup_seconds = 6.0;
  p.spindown_seconds = 4.0;
  return p;  // breakeven = (120 + 40) / 10 = 16 s
}

DiskPerfParams test_perf() {
  DiskPerfParams p;  // defaults: ~8.6 ms for a 512 KB block
  return p;
}

Request make_request(RequestId id, DataId data, sim::SimTime t) {
  Request r;
  r.id = id;
  r.data = data;
  r.arrival_time = t;
  r.dispatch_time = t;
  return r;
}

TEST(DiskPowerParams, BreakevenAndCeilingAreConsistent) {
  const auto p = test_power();
  EXPECT_DOUBLE_EQ(p.transition_energy(), 160.0);
  EXPECT_DOUBLE_EQ(p.breakeven_seconds(), 16.0);
  EXPECT_DOUBLE_EQ(p.max_request_energy(), 320.0);
  EXPECT_DOUBLE_EQ(p.saving_window_seconds(), 26.0);
}

TEST(DiskPowerParams, OverrideForcesBreakeven) {
  auto p = test_power();
  p.breakeven_override_seconds = 5.0;
  EXPECT_DOUBLE_EQ(p.breakeven_seconds(), 5.0);
  EXPECT_DOUBLE_EQ(p.max_request_energy(), 160.0 + 50.0);
}

TEST(DiskPowerParams, ValidateRejectsNonsense) {
  auto p = test_power();
  p.standby_watts = p.idle_watts;  // standby must be cheaper than idle
  EXPECT_THROW(p.validate(), InvariantError);
}

TEST(DiskPerfParams, ServiceTimeScalesWithTransferSize) {
  const auto p = test_perf();
  const double small = p.service_seconds(4 * 1024);
  const double large = p.service_seconds(4 * 1024 * 1024);
  EXPECT_GT(large, small);
  // Mechanical overheads dominate small transfers: ~5.7 ms with defaults.
  EXPECT_NEAR(small, 0.0002 + 0.0035 + 0.002, 1e-3);
  // I/O stays in the millisecond range (the paper's separation of scales).
  EXPECT_LT(large, 0.1);
}

TEST(Disk, StartsInConfiguredState) {
  sim::Simulator sim;
  Disk standby(0, sim, test_power(), test_perf(), DiskState::Standby);
  Disk idle(1, sim, test_power(), test_perf(), DiskState::Idle);
  EXPECT_EQ(standby.state(), DiskState::Standby);
  EXPECT_EQ(idle.state(), DiskState::Idle);
}

TEST(Disk, RefusesToStartMidTransition) {
  sim::Simulator sim;
  EXPECT_THROW(
      Disk(0, sim, test_power(), test_perf(), DiskState::SpinningUp),
      InvariantError);
}

TEST(Disk, IdleDiskServesImmediately) {
  sim::Simulator sim;
  Disk d(0, sim, test_power(), test_perf(), DiskState::Idle);
  std::vector<Completion> done;
  d.set_completion_callback([&](const Completion& c) { done.push_back(c); });

  d.submit(make_request(1, 0, 0.0));
  EXPECT_EQ(d.state(), DiskState::Active);
  sim.run();

  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done[0].waited_for_spinup);
  EXPECT_NEAR(done[0].response_seconds(),
              test_perf().service_seconds(done[0].request.size_bytes), 1e-12);
  EXPECT_EQ(d.state(), DiskState::Idle);
  EXPECT_EQ(d.stats().requests_served, 1u);
}

TEST(Disk, StandbyDiskPaysSpinUpDelay) {
  sim::Simulator sim;
  Disk d(0, sim, test_power(), test_perf(), DiskState::Standby);
  std::vector<Completion> done;
  d.set_completion_callback([&](const Completion& c) { done.push_back(c); });

  d.submit(make_request(1, 0, 0.0));
  EXPECT_EQ(d.state(), DiskState::SpinningUp);
  sim.run();

  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].waited_for_spinup);
  EXPECT_GE(done[0].response_seconds(), test_power().spinup_seconds);
  EXPECT_EQ(d.stats().spin_ups, 1u);
}

TEST(Disk, FcfsOrderWithinTheQueue) {
  sim::Simulator sim;
  Disk d(0, sim, test_power(), test_perf(), DiskState::Idle);
  std::vector<RequestId> order;
  d.set_completion_callback(
      [&](const Completion& c) { order.push_back(c.request.id); });

  for (RequestId id = 1; id <= 5; ++id) d.submit(make_request(id, 0, 0.0));
  sim.run();
  EXPECT_EQ(order, (std::vector<RequestId>{1, 2, 3, 4, 5}));
}

TEST(Disk, QueuedRequestsCountsInService) {
  sim::Simulator sim;
  Disk d(0, sim, test_power(), test_perf(), DiskState::Idle);
  d.submit(make_request(1, 0, 0.0));
  d.submit(make_request(2, 0, 0.0));
  EXPECT_EQ(d.queued_requests(), 2u);  // one in service + one waiting
  sim.run();
  EXPECT_EQ(d.queued_requests(), 0u);
}

TEST(Disk, SpinDownOnlyLegalFromIdle) {
  sim::Simulator sim;
  Disk d(0, sim, test_power(), test_perf(), DiskState::Standby);
  EXPECT_THROW(d.spin_down(), InvariantError);
}

TEST(Disk, SpinDownThenRequestBouncesBackUp) {
  sim::Simulator sim;
  Disk d(0, sim, test_power(), test_perf(), DiskState::Idle);
  std::vector<Completion> done;
  d.set_completion_callback([&](const Completion& c) { done.push_back(c); });

  d.spin_down();
  EXPECT_EQ(d.state(), DiskState::SpinningDown);
  // Request lands mid-spin-down: the disk must finish spinning down, then
  // spin up, then serve.
  d.submit(make_request(1, 0, 0.0));
  sim.run();

  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].waited_for_spinup);
  EXPECT_GE(done[0].completion_time,
            test_power().spindown_seconds + test_power().spinup_seconds);
  EXPECT_EQ(d.stats().spin_downs, 1u);
  EXPECT_EQ(d.stats().spin_ups, 1u);
}

TEST(Disk, SpinUpDuringSpinDownIsDeferredNotLost) {
  sim::Simulator sim;
  Disk d(0, sim, test_power(), test_perf(), DiskState::Idle);
  d.spin_down();
  d.spin_up();  // oracle-style wake while still spinning down
  sim.run();
  EXPECT_EQ(d.state(), DiskState::Idle);
  EXPECT_EQ(d.stats().spin_ups, 1u);
}

TEST(Disk, EnergyAccountingIntegratesStateResidency) {
  sim::Simulator sim;
  const auto p = test_power();
  Disk d(0, sim, p, test_perf(), DiskState::Idle);

  // Idle 0..10, spin down 10..14, standby 14..20.
  sim.schedule_at(10.0, [&] { d.spin_down(); });
  sim.run();
  d.finalize(20.0);

  const auto& st = d.stats();
  EXPECT_DOUBLE_EQ(st.seconds(DiskState::Idle), 10.0);
  EXPECT_DOUBLE_EQ(st.seconds(DiskState::SpinningDown), 4.0);
  EXPECT_DOUBLE_EQ(st.seconds(DiskState::Standby), 6.0);
  EXPECT_DOUBLE_EQ(st.joules(DiskState::Idle), 100.0);
  EXPECT_DOUBLE_EQ(st.joules(DiskState::SpinningDown), 40.0);
  EXPECT_DOUBLE_EQ(st.joules(DiskState::Standby), 6.0);
  EXPECT_DOUBLE_EQ(st.total_seconds(), 20.0);
  EXPECT_DOUBLE_EQ(st.total_joules(), 146.0);
}

TEST(Disk, StateTimesSumToFinalizeHorizon) {
  sim::Simulator sim;
  Disk d(0, sim, test_power(), test_perf(), DiskState::Standby);
  for (int i = 0; i < 3; ++i) {
    sim.schedule_at(30.0 * i, [&d, i] {
      Request r = make_request(static_cast<RequestId>(i), 0, 30.0 * i);
      d.submit(r);
    });
  }
  sim.run();
  const double horizon = sim.now() + 5.0;
  d.finalize(horizon);
  EXPECT_NEAR(d.stats().total_seconds(), horizon, 1e-9);
}

TEST(Disk, LastRequestTimeTracksSubmissions) {
  sim::Simulator sim;
  Disk d(0, sim, test_power(), test_perf(), DiskState::Idle);
  EXPECT_LT(d.status().last_request_time, 0.0);  // none yet
  sim.schedule_at(4.0, [&] { d.submit(make_request(1, 0, 4.0)); });
  sim.run();
  EXPECT_DOUBLE_EQ(d.status().last_request_time, 4.0);
}

TEST(Disk, FinalizeBeforeAccountedTimeThrows) {
  sim::Simulator sim;
  Disk d(0, sim, test_power(), test_perf(), DiskState::Idle);
  sim.schedule_at(10.0, [] {});
  sim.run();
  d.finalize(10.0);
  EXPECT_THROW(d.finalize(5.0), InvariantError);
}

TEST(Disk, ZeroTransitionTimesDegenerateCleanly) {
  // The paper's example power model has instantaneous transitions; the state
  // machine must not wedge on zero-delay events.
  sim::Simulator sim;
  auto p = disk::example_power_params();
  Disk d(0, sim, p, test_perf(), DiskState::Standby);
  std::vector<Completion> done;
  d.set_completion_callback([&](const Completion& c) { done.push_back(c); });
  d.submit(make_request(1, 0, 0.0));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(d.state(), DiskState::Idle);
}

TEST(Disk, ServiceTimeIgnoresTheDataId) {
  // The calibrated experiments rely on the average-seek model: identical
  // service time for every 4 KB request regardless of data id.
  sim::Simulator sim;
  DiskPerfParams p;
  Disk d(0, sim, DiskPowerParams{}, p, DiskState::Idle);
  std::vector<double> service_times;
  d.set_completion_callback([&](const Completion& c) {
    service_times.push_back(c.completion_time - c.service_start);
  });
  Request a = make_request(1, 5, 0.0);
  Request b = make_request(2, 49999, 0.0);
  a.size_bytes = b.size_bytes = 4096;
  d.submit(a);
  d.submit(b);
  sim.run();
  ASSERT_EQ(service_times.size(), 2u);
  EXPECT_DOUBLE_EQ(service_times[0], service_times[1]);
  EXPECT_DOUBLE_EQ(service_times[0], p.service_seconds(4096));
}

TEST(DiskStateNames, AreHumanReadable) {
  EXPECT_STREQ(to_string(DiskState::Standby), "standby");
  EXPECT_STREQ(to_string(DiskState::SpinningUp), "spin-up");
  EXPECT_STREQ(to_string(DiskState::Idle), "idle");
  EXPECT_STREQ(to_string(DiskState::Active), "active");
  EXPECT_STREQ(to_string(DiskState::SpinningDown), "spin-down");
}

}  // namespace
}  // namespace eas::disk
