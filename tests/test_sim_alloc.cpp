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
  // built in place in its double-buffered callback storage.
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
