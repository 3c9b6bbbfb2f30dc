// Unit tests for the disk state machine, service model and energy meter.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
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

// The queue is a ring that doubles when full. Serving from the front while
// the back refills wraps it, and growing a wrapped ring must keep queue
// order; a middle removal shifts within it, and take_pending drains it
// oldest first.
TEST(Disk, QueueKeepsFcfsOrderAcrossRingWrapAndGrowth) {
  sim::Simulator sim;
  Disk d(0, sim, test_power(), test_perf(), DiskState::Idle);
  std::vector<RequestId> order;
  d.set_completion_callback(
      [&](const Completion& c) { order.push_back(c.request.id); });
  std::vector<RequestId> expected;
  RequestId next = 0;
  // Each round queues more than it serves, so the front advances while the
  // ring grows past 16, 32 and 64 slots with its entries wrapped.
  for (int round = 0; round < 8; ++round) {
    for (int k = 0; k < 12; ++k) {
      d.submit(make_request(next, 0, sim.now()));
      expected.push_back(next++);
    }
    sim.run_until(sim.now() + 0.02);  // a couple of completions
  }
  // Remove two queued entries from the middle.
  const RequestId gone_a = expected[60];
  const RequestId gone_b = expected[61 + 7];
  ASSERT_TRUE(d.remove_pending(gone_a, RequestKind::kForeground));
  ASSERT_TRUE(d.remove_pending(gone_b, RequestKind::kForeground));
  ASSERT_FALSE(d.remove_pending(gone_a, RequestKind::kForeground));
  std::erase(expected, gone_a);
  std::erase(expected, gone_b);
  // Serve a few more, then drain the queue by fault.
  std::vector<Request> taken;
  sim.run_until(sim.now() + 0.05);
  const std::size_t served = order.size();
  d.take_pending(taken);
  ASSERT_FALSE(taken.empty());
  sim.run();
  // The one in service when the queue was taken still completes. What was
  // served, then what was taken, is the submission order.
  ASSERT_EQ(order.size(), served + 1);
  std::vector<RequestId> served_then_taken = order;
  for (const Request& r : taken) served_then_taken.push_back(r.id);
  EXPECT_EQ(served_then_taken, expected);
  EXPECT_EQ(d.queued_requests(), 0u);
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

Request sized(RequestId id, sim::SimTime t, unsigned long bytes) {
  Request r = make_request(id, 0, t);
  r.size_bytes = bytes;
  return r;
}

constexpr unsigned long kSmall = 4096;
constexpr unsigned long kLarge = 512 * 1024;

// A disk's completions of its lane size ride a kernel delay lane; every
// other size rides the event heap. Either way a request completes at its
// service start plus its service time, and completions at one instant fire
// in the order they were armed, across the two queues and across disks: the
// order schedule_in alone gives.
TEST(Disk, LaneAndHeapCompletionsFireInArmingOrder) {
  sim::Simulator sim;
  const DiskPerfParams perf = test_perf();
  const double small = perf.service_seconds(kSmall);
  const double large = perf.service_seconds(kLarge);
  Disk d0(0, sim, test_power(), perf, DiskState::Idle, nullptr, kSmall);
  Disk d1(1, sim, test_power(), perf, DiskState::Idle, nullptr, kLarge);
  std::vector<Completion> done;
  const auto record = [&](const Completion& c) {
    done.push_back(c);
    EXPECT_EQ(c.completion_time,
              c.service_start + perf.service_seconds(c.request.size_bytes))
        << "request " << c.request.id;
  };
  d0.set_completion_callback([&](const Completion& c) {
    record(c);
    // d1's first request (its lane: the large delay) starts at the instant
    // d0 starts request 3 through the heap, and is armed first.
    if (c.request.id == 1) d1.submit(sized(4, sim.now(), kLarge));
  });
  d1.set_completion_callback(record);

  d0.submit(sized(1, 0.0, kSmall));  // d0's lane
  d0.submit(sized(3, 0.0, kLarge));  // heap
  // d0 spins down at t = 1, a small and a large request wake it, and it
  // spins up again at t = 5 + 6 = 11.
  sim.schedule_at(1.0, [&] {
    d0.spin_down();
    d0.submit(sized(5, 1.0, kSmall));  // d0's lane, after the spin-up
    d0.submit(sized(6, 1.0, kLarge));  // heap
  });
  // Armed at t = 11 after d0's spin-up completes, so it fires after d0's
  // request 5, whose completion arms request 6 on the heap; d1's request 8
  // then starts at that instant on its lane, armed second.
  sim.schedule_at(6.0, [&] {
    sim.schedule_at(11.0, [&] {
      sim.schedule_in(small, [&] { d1.submit(sized(8, sim.now(), kLarge)); });
    });
  });
  sim.run();

  std::vector<std::pair<RequestId, DiskId>> order;
  for (const Completion& c : done) order.emplace_back(c.request.id, c.disk);
  const std::vector<std::pair<RequestId, DiskId>> want{
      {1, 0}, {4, 1}, {3, 0}, {5, 0}, {6, 0}, {8, 1}};
  ASSERT_EQ(order, want);
  EXPECT_EQ(done[0].completion_time, small);
  EXPECT_EQ(done[1].completion_time, small + large);
  EXPECT_EQ(done[2].completion_time, done[1].completion_time);  // a tie
  EXPECT_TRUE(done[3].waited_for_spinup);
  EXPECT_EQ(done[3].service_start, 11.0);
  EXPECT_EQ(done[4].completion_time, 11.0 + small + large);
  EXPECT_EQ(done[5].completion_time, done[4].completion_time);  // a tie
  EXPECT_EQ(d0.stats().spin_downs, 1u);
  EXPECT_EQ(d0.stats().spin_ups, 1u);
  EXPECT_EQ(d0.state(), DiskState::Idle);
  EXPECT_EQ(d1.state(), DiskState::Idle);
}

TEST(Disk, CompletionOfTheLaneDelayLeavesTheHeapEmpty) {
  sim::Simulator sim;
  Disk d(0, sim, test_power(), test_perf(), DiskState::Idle, nullptr, kSmall);
  d.submit(sized(1, 0.0, kSmall));
  d.submit(sized(2, 0.0, kLarge));
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_EQ(sim.queue_depth(), 0u);  // request 1 is on the lane
  ASSERT_TRUE(sim.step());           // request 2 starts, at another delay
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_EQ(sim.queue_depth(), 1u);
  d.submit(sized(3, sim.now(), kSmall));
  ASSERT_TRUE(sim.step());  // request 3 starts, back on the lane
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_EQ(sim.queue_depth(), 0u);
  sim.run();
  EXPECT_EQ(d.stats().requests_served, 3u);
}

// Lanes are deduplicated by delay, and a simulator has a fixed number of
// them. Disks whose lane sizes all differ take lanes until none is left;
// the rest serve through the heap rather than hit the lane limit.
TEST(Disk, FleetWithMoreLaneDelaysThanLanesFallsBackToTheHeap) {
  sim::Simulator sim;
  const DiskPerfParams perf = test_perf();
  constexpr DiskId kDisks = 300;
  std::vector<std::unique_ptr<Disk>> fleet;
  std::vector<Completion> done;
  const auto bytes_of = [](DiskId k) { return kSmall + 512ul * k; };
  for (DiskId k = 0; k < kDisks; ++k) {
    fleet.push_back(std::make_unique<Disk>(k, sim, test_power(), perf,
                                           DiskState::Idle, nullptr,
                                           bytes_of(k)));
    fleet.back()->set_completion_callback(
        [&](const Completion& c) { done.push_back(c); });
  }
  for (DiskId k = 0; k < kDisks; ++k) {
    const unsigned long bytes = bytes_of(k);
    fleet[k]->submit(sized(2 * k, 0.0, bytes));
    fleet[k]->submit(sized(2 * k + 1, 0.0, bytes));
  }
  EXPECT_EQ(sim.pending_count(), std::size_t{kDisks});
  // Only the disks left without a lane put their completions on the heap.
  EXPECT_GT(sim.queue_depth(), 0u);
  EXPECT_LT(sim.queue_depth(), std::size_t{kDisks});
  sim.run();
  ASSERT_EQ(done.size(), 2u * kDisks);
  for (std::size_t i = 0; i < done.size(); ++i) {
    const Completion& c = done[i];
    EXPECT_EQ(c.completion_time,
              c.service_start + perf.service_seconds(c.request.size_bytes));
    if (i > 0) {
      EXPECT_LE(done[i - 1].completion_time, c.completion_time);
    }
  }
  for (const auto& d : fleet) EXPECT_EQ(d->stats().requests_served, 2u);
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
