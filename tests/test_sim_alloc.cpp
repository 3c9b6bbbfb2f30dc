// Allocation-freedom tests for the event kernel. The slot-pool simulator
// promises zero heap allocations per steady-state schedule/fire (and
// schedule/cancel) cycle for callbacks that fit InlineCallback's 48-byte
// buffer; this binary replaces global operator new with a counting shim and
// asserts the promise literally.
//
// The shim (alloc_counter.cpp) is linked into this binary only, so the rest
// of the suite is unaffected.
#include <gtest/gtest.h>

#include <vector>

#include "alloc_counter.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/simulator.hpp"

namespace eas::sim {
namespace {

using testing::allocations_during;

TEST(SimulatorAllocation, SteadyStateScheduleFireIsAllocationFree) {
  Simulator sim;
  double acc = 0.0;

  // Warm-up: grow the slot pool, callback chunk, and heap to their
  // steady-state high-water marks, then drain.
  for (int i = 0; i < 512; ++i) {
    sim.schedule_in(1e-3 * (i % 64), [&acc, i] { acc += i; });
  }
  sim.run();

  const std::uint64_t n = allocations_during([&] {
    for (int round = 0; round < 100; ++round) {
      for (int i = 0; i < 512; ++i) {
        sim.schedule_in(1e-3 * (i % 64), [&acc, i] { acc += i; });
      }
      sim.run();
    }
  });
  EXPECT_EQ(n, 0u) << "schedule/fire cycles allocated";
  EXPECT_NE(acc, 0.0);  // keep the callbacks observable
}

TEST(SimulatorAllocation, SteadyStateScheduleCancelIsAllocationFree) {
  Simulator sim;
  double acc = 0.0;
  std::vector<EventHandle> handles;
  handles.reserve(512);

  for (int i = 0; i < 512; ++i) {
    handles.push_back(sim.schedule_in(1.0 + i, [&acc, i] { acc += i; }));
  }
  for (const EventHandle& h : handles) ASSERT_TRUE(sim.cancel(h));

  const std::uint64_t n = allocations_during([&] {
    for (int round = 0; round < 100; ++round) {
      handles.clear();
      for (int i = 0; i < 512; ++i) {
        handles.push_back(sim.schedule_in(1.0 + i, [&acc, i] { acc += i; }));
      }
      for (const EventHandle& h : handles) sim.cancel(h);
    }
  });
  EXPECT_EQ(n, 0u) << "schedule/cancel cycles allocated";
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorAllocation, WarmArrivalLaneCycleIsAllocationFree) {
  // Trace replay's shape: each arrival re-arms the lane for the next one
  // and schedules a heap event (a disk completion stand-in). Once the slot
  // pool is warm, a whole replay allocates nothing — the lane's cursor is
  // built in place in a recycled pool slot.
  Simulator sim;
  double acc = 0.0;
  struct Arrival {
    Simulator* sim;
    double* acc;
    int i;
    int n;
    void operator()() const {
      if (i + 1 < n) {
        sim->schedule_arrival(sim->now() + 1e-3 * ((i + 1) % 3),
                              Arrival{sim, acc, i + 1, n});
      }
      sim->schedule_in(5e-3, [a = acc, v = i] { *a += v; });
    }
  };
  const auto replay = [&] {
    sim.schedule_arrival(sim.now(), Arrival{&sim, &acc, 0, 4096});
    sim.run();
  };
  replay();  // warm-up: grows the slot pool and heap to their high-water mark

  const std::uint64_t fired_before = sim.events_fired();
  const std::uint64_t n = allocations_during([&] {
    for (int round = 0; round < 50; ++round) replay();
  });
  EXPECT_EQ(n, 0u) << "lane re-arm/fire cycles allocated";
  EXPECT_EQ(sim.events_fired() - fired_before, 50u * 4096u * 2u);
  EXPECT_NE(acc, 0.0);
}

// --- delay lanes -------------------------------------------------------------

/// The spin-down timer's shape: `timers` owners each keep one lane timer,
/// and every cycle one owner (chosen pseudo-randomly) cancels and re-arms
/// its own, while the clock creeps forward so a few timers fire instead.
void churn_lane_timers(Simulator& sim, Simulator::LaneId lane,
                       std::vector<EventHandle>& timers, std::uint64_t cycles,
                       std::uint64_t& x, double& acc) {
  for (std::uint64_t c = 0; c < cycles; ++c) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    EventHandle& h = timers[(x >> 33) % timers.size()];
    sim.cancel(h);
    h = sim.schedule_on(lane, [&acc] { acc += 1.0; });
    if (c % timers.size() == 0) sim.run_until(sim.now() + 0.05);
  }
}

/// Byte budget for a lane workload of at most 180 live timers, from a cold
/// simulator: one 64 KiB callback chunk, ~4 KiB of slot metadata and the
/// lane's keys (24 B each, at most 4x the live count: ~24 KiB summed over
/// their geometric growth). Both tests below measure ~94 KiB. A lane that
/// kept every key it ever held would allocate 24 MB for a million arms.
constexpr std::uint64_t kLaneByteBound = 128 * 1024;

TEST(SimulatorAllocation, WarmLaneArmFireCancelIsAllocationFree) {
  Simulator sim;
  const auto lane = sim.delay_lane(1.0);
  std::vector<EventHandle> timers(180);
  std::uint64_t x = 11;
  double acc = 0.0;
  churn_lane_timers(sim, lane, timers, 100000, x, acc);  // warm-up
  sim.run();

  const std::uint64_t fired_before = sim.events_fired();
  const std::uint64_t n = allocations_during([&] {
    for (int round = 0; round < 20; ++round) {
      churn_lane_timers(sim, lane, timers, 10000, x, acc);
      sim.run();  // drain: every surviving timer fires
    }
  });
  EXPECT_EQ(n, 0u) << "lane arm/fire/cancel cycles allocated";
  EXPECT_GT(sim.events_fired(), fired_before);
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_NE(acc, 0.0);
}

TEST(SimulatorAllocation, MillionLaneArmCancelCyclesStayWithinAFixedBound) {
  std::uint64_t x = 5;
  double acc = 0.0;
  std::size_t keys = 0;
  const std::uint64_t bytes = testing::bytes_during([&] {
    Simulator sim;
    const auto lane = sim.delay_lane(30.0);
    std::vector<EventHandle> timers(180);
    churn_lane_timers(sim, lane, timers, 1000000, x, acc);
    keys = sim.lane_key_count();
  });
  EXPECT_LE(keys, 4u * 180u);
  EXPECT_LE(bytes, kLaneByteBound);
}

TEST(SimulatorAllocation, MillionLaneFiresWithoutCancelStayWithinAFixedBound) {
  // The DRAM-completion shape: never cancelled, every event fires, and 180
  // chains each re-arm the lane from inside their own callback.
  struct Chain {
    Simulator* sim;
    Simulator::LaneId lane;
    std::uint64_t* left;
    void operator()() const {
      if (*left == 0) return;
      --*left;
      sim->schedule_on(lane, Chain{sim, lane, left});
    }
  };
  std::uint64_t left = 1000000;
  std::uint64_t fired = 0;
  const std::uint64_t bytes = testing::bytes_during([&] {
    Simulator sim;
    const auto lane = sim.delay_lane(20e-6);
    for (int i = 0; i < 180; ++i) {
      sim.schedule_on(lane, Chain{&sim, lane, &left});
    }
    fired = sim.run();
  });
  EXPECT_EQ(left, 0u);
  EXPECT_EQ(fired, 1000000u + 180u);
  EXPECT_LE(bytes, kLaneByteBound);
}

TEST(SimulatorAllocation, TracingCompiledInButOffAddsNoAllocations) {
  // The observability hooks ride the simulator as a nullable pointer; with
  // no recorder attached (the default) every EAS_OBS site is one untaken
  // branch and the steady-state zero-allocation promise must hold verbatim.
  Simulator sim;
  ASSERT_EQ(sim.recorder(), nullptr);
  double acc = 0.0;
  for (int i = 0; i < 512; ++i) {
    sim.schedule_in(1e-3 * (i % 64), [&acc, i] { acc += i; });
  }
  sim.run();

  const std::uint64_t n = allocations_during([&] {
    for (int round = 0; round < 100; ++round) {
      for (int i = 0; i < 512; ++i) {
        sim.schedule_in(1e-3 * (i % 64), [&acc, i] { acc += i; });
      }
      sim.run();
    }
  });
  EXPECT_EQ(n, 0u) << "tracing-off schedule/fire cycles allocated";
}

TEST(SimulatorAllocation, RecordingIntoAWarmRingIsAllocationFree) {
  // With tracing *on*, the ring is preallocated at construction; recording
  // through the EAS_OBS macro must never touch the heap, even after the
  // ring wraps.
  obs::TraceRecorder rec({.enabled = true, .capacity = 256});
  Simulator sim;
  sim.set_recorder(&rec);

  const std::uint64_t n = allocations_during([&] {
    for (int i = 0; i < 4096; ++i) {
      EAS_OBS(sim.recorder(),
              record(1e-3 * i, obs::Ev::kQueue,
                     static_cast<std::uint64_t>(i), 3, 7));
    }
  });
  EXPECT_EQ(n, 0u) << "warm-ring recording allocated";
#if !defined(EASCHED_NO_OBS)
  EXPECT_EQ(rec.recorded(), 4096u);
  EXPECT_EQ(rec.dropped(), 4096u - 256u);
#endif
}

TEST(SimulatorAllocation, OversizedCallbacksStillWorkButMayAllocate) {
  // Callbacks beyond the 48-byte inline buffer take the heap fallback —
  // documented, not forbidden. This test pins the *functional* behaviour so
  // the fallback path keeps coverage in the allocation-counting binary.
  Simulator sim;
  struct Big {
    double pad[8];  // 64 bytes: exceeds kInlineSize
  };
  Big big{{1, 2, 3, 4, 5, 6, 7, 8}};
  double sum = 0.0;
  sim.schedule_at(1.0, [big, &sum] {
    for (double v : big.pad) sum += v;
  });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_DOUBLE_EQ(sum, 36.0);
}

}  // namespace
}  // namespace eas::sim
