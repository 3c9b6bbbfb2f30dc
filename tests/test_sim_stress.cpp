// Randomized stress/property tests for the event kernel: heavy interleaving
// of scheduling, cancellation and re-entrant event creation must preserve
// the two kernel invariants — monotone fire times and FIFO tie-breaking.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace eas::sim {
namespace {

class SimStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimStressTest, FireTimesAreMonotoneUnderRandomChurn) {
  util::Rng rng(GetParam());
  Simulator sim;
  std::vector<double> fired_at;
  std::vector<EventHandle> handles;

  // Seed events.
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    handles.push_back(sim.schedule_at(t, [&fired_at, &sim] {
      fired_at.push_back(sim.now());
    }));
  }
  // Random cancellations.
  for (int i = 0; i < 60; ++i) {
    sim.cancel(handles[rng.next_below(handles.size())]);
  }
  // Re-entrant churn: some events spawn children and cancel peers.
  for (int i = 0; i < 50; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    sim.schedule_at(t, [&, i] {
      fired_at.push_back(sim.now());
      if (i % 3 == 0) {
        sim.schedule_in(rng.uniform(0.0, 10.0),
                        [&fired_at, &sim] { fired_at.push_back(sim.now()); });
      }
      if (i % 4 == 0 && !handles.empty()) {
        sim.cancel(handles[i % handles.size()]);
      }
    });
  }

  sim.run();
  for (std::size_t i = 1; i < fired_at.size(); ++i) {
    ASSERT_LE(fired_at[i - 1], fired_at[i]) << "at event " << i;
  }
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_P(SimStressTest, CancelledEventsNeverFireAndLiveOnesAlwaysDo) {
  util::Rng rng(GetParam() + 1000);
  Simulator sim;
  const int n = 300;
  std::vector<int> fired(n, 0);
  std::vector<EventHandle> handles;
  for (int i = 0; i < n; ++i) {
    handles.push_back(
        sim.schedule_at(rng.uniform(0.0, 50.0), [&fired, i] { ++fired[i]; }));
  }
  std::vector<bool> cancelled(n, false);
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.4)) cancelled[i] = sim.cancel(handles[i]);
  }
  sim.run();
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(fired[i], cancelled[i] ? 0 : 1) << "event " << i;
  }
}

TEST_P(SimStressTest, FifoWithinIdenticalTimestamps) {
  util::Rng rng(GetParam() + 2000);
  Simulator sim;
  // A handful of distinct timestamps, many events each.
  const double times[] = {1.0, 2.0, 2.0, 3.5};
  std::vector<std::pair<double, int>> order;
  int seq = 0;
  for (int round = 0; round < 100; ++round) {
    const double t = times[rng.next_below(4)];
    const int my_seq = seq++;
    sim.schedule_at(t, [&order, t, my_seq] { order.push_back({t, my_seq}); });
  }
  sim.run();
  // Within each timestamp, sequence numbers must be increasing.
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i - 1].first == order[i].first) {
      EXPECT_LT(order[i - 1].second, order[i].second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimStressTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// 100k-operation churn through the slot pool: schedule, cancel, and fire in
// random proportions while asserting after every phase that the heap and
// the slot bookkeeping agree. pending_count() counts live slots and must
// match the model exactly (a double-freed slot breaks it); queue_depth()
// counts heap keys, stale ones of cancelled events included, and must stay
// within twice the live count and drain to zero (a leaked stale key breaks
// that).
TEST(SimStress, HeapAndSlotPoolStayInSyncOver100kOps) {
  util::Rng rng(0xea50123);
  Simulator sim;
  std::vector<EventHandle> live;
  std::size_t expected_pending = 0;
  std::size_t fired = 0;

  for (int op = 0; op < 100000; ++op) {
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.55 || live.empty()) {
      live.push_back(
          sim.schedule_in(rng.uniform(0.0, 10.0), [&fired] { ++fired; }));
      ++expected_pending;
    } else if (dice < 0.85) {
      // Cancel a random handle; it may already have been cancelled or fired,
      // in which case cancel() must report false and change nothing.
      const std::size_t pick = rng.next_below(live.size());
      if (sim.cancel(live[pick])) --expected_pending;
      live[pick] = live.back();
      live.pop_back();
    } else {
      const std::size_t before = sim.pending_count();
      if (sim.step()) --expected_pending;
      ASSERT_EQ(sim.pending_count(), before == 0 ? 0 : before - 1);
    }
    ASSERT_LE(sim.queue_depth(), 2 * sim.pending_count()) << "op " << op;
    ASSERT_EQ(sim.pending_count(), expected_pending) << "op " << op;
  }
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.queue_depth(), 0u);
}

// Slot recycling mints a fresh generation, so a handle kept across a
// cancel/fire + re-schedule must be rejected instead of killing the new
// occupant of the slot.
TEST(SimStress, RecycledSlotRejectsStaleHandles) {
  Simulator sim;
  int first = 0, second = 0;

  // Recycle via cancel: h1's slot is freed, h2 reuses it.
  const EventHandle h1 = sim.schedule_at(1.0, [&first] { ++first; });
  ASSERT_TRUE(sim.cancel(h1));
  const EventHandle h2 = sim.schedule_at(2.0, [&second] { ++second; });
  EXPECT_FALSE(sim.cancel(h1)) << "stale handle cancelled the recycled slot";
  EXPECT_EQ(sim.pending_count(), 1u);

  // Recycle via fire: after h2 fires, h3 reuses the slot; both old handles
  // must still be dead.
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(second, 1);
  const EventHandle h3 = sim.schedule_at(3.0, [&first] { ++first; });
  EXPECT_FALSE(sim.cancel(h1));
  EXPECT_FALSE(sim.cancel(h2));
  EXPECT_TRUE(sim.cancel(h3));
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(first, 0);

  // A default handle is never valid.
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(SimStress, DeepReentrantChainTerminates) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10000) sim.schedule_in(0.0, chain);
  };
  sim.schedule_at(0.0, chain);
  EXPECT_EQ(sim.run(), 10000u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);  // zero-delay chain stays at t=0
}

}  // namespace
}  // namespace eas::sim
