// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace eas::sim {
namespace {

TEST(Simulator, StartsAtTimeZeroWithEmptyQueue) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, FiresEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(7.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(Simulator, ScheduleInUsesRelativeDelay) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(3.0, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), InvariantError);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), InvariantError);
}

TEST(Simulator, NonFiniteTimeThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(kTimeInfinity, [] {}), InvariantError);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, Simulator::Callback{}), InvariantError);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.pending(h));
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.pending(h));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotentAndNullSafe) {
  Simulator sim;
  EventHandle h = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Simulator, CancelledEventsDoNotCountAsPending) {
  Simulator sim;
  EventHandle h = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.cancel(h);
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  EXPECT_EQ(sim.run(), 100u);
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

TEST(Simulator, EventsCanCancelOtherEvents) {
  Simulator sim;
  bool victim_fired = false;
  EventHandle victim = sim.schedule_at(2.0, [&] { victim_fired = true; });
  sim.schedule_at(1.0, [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(victim_fired);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  EXPECT_EQ(sim.run_until(2.0), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.run(), 2u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  EXPECT_EQ(sim.run_until(42.0), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulator, NextEventTimeReflectsLiveEvents) {
  Simulator sim;
  // Genuinely const: no tombstones to lazily drop, so the query must
  // compile and answer through a const ref (the old kernel const_cast away
  // constness to clean the queue here).
  const Simulator& csim = sim;
  EXPECT_DOUBLE_EQ(csim.next_event_time(), kTimeInfinity);
  EventHandle h = sim.schedule_at(5.0, [] {});
  sim.schedule_at(9.0, [] {});
  EXPECT_DOUBLE_EQ(csim.next_event_time(), 5.0);
  sim.cancel(h);
  EXPECT_DOUBLE_EQ(csim.next_event_time(), 9.0);
}

TEST(Simulator, EventsFiredAccumulates) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  for (int i = 5; i < 8; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_fired(), 8u);
}

// --- arrival lane ------------------------------------------------------------

TEST(ArrivalLane, BeatsEqualTimeHeapEventScheduledEarlier) {
  Simulator sim;
  std::vector<char> order;
  sim.schedule_at(5.0, [&] { order.push_back('h'); });
  sim.schedule_arrival(5.0, [&] { order.push_back('a'); });
  EXPECT_EQ(sim.pending_count(), 2u);
  EXPECT_EQ(sim.queue_depth(), 1u);  // the lane is not in the heap
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<char>{'a', 'h'}));
  EXPECT_EQ(sim.events_fired(), 2u);
}

TEST(ArrivalLane, StrictlyEarlierHeapEventFiresFirst) {
  Simulator sim;
  std::vector<char> order;
  sim.schedule_arrival(5.0, [&] { order.push_back('a'); });
  sim.schedule_at(4.0, [&] { order.push_back('h'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'h', 'a'}));
}

TEST(ArrivalLane, RearmsFromInsideItsOwnCallback) {
  Simulator sim;
  const std::vector<double> times = {1.0, 1.0, 2.0, 3.0, 3.0};
  std::vector<double> seen;
  struct Step {
    Simulator* sim;
    const std::vector<double>* times;
    std::vector<double>* seen;
    std::size_t i;
    void operator()() const {
      seen->push_back(sim->now());
      // Heap events scheduled at the arrival's own time must still lose to
      // the next arrival at that time.
      sim->schedule_in(0.0, [s = seen] { s->push_back(-1.0); });
      if (i + 1 < times->size()) {
        sim->schedule_arrival((*times)[i + 1], Step{sim, times, seen, i + 1});
      }
    }
  };
  sim.schedule_arrival(times[0], Step{&sim, &times, &seen, 0});
  EXPECT_EQ(sim.run(), 10u);
  EXPECT_EQ(seen, (std::vector<double>{1.0, 1.0, -1.0, -1.0, 2.0, -1.0, 3.0,
                                       3.0, -1.0, -1.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(ArrivalLane, RunUntilStopsBeforeLaterLaneEventAndLeavesItPending) {
  Simulator sim;
  bool lane_fired = false;
  sim.schedule_at(2.0, [] {});
  sim.schedule_arrival(10.0, [&] { lane_fired = true; });
  EXPECT_EQ(sim.run_until(5.0), 1u);
  EXPECT_FALSE(lane_fired);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 10.0);
  EXPECT_EQ(sim.run_until(10.0), 1u);  // the bound is inclusive
  EXPECT_TRUE(lane_fired);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(ArrivalLane, StepAndNextEventTimeSeeTheLane) {
  Simulator sim;
  const Simulator& csim = sim;
  std::vector<char> order;
  sim.schedule_at(4.0, [&] { order.push_back('h'); });
  sim.schedule_arrival(3.0, [&] { order.push_back('a'); });
  EXPECT_DOUBLE_EQ(csim.next_event_time(), 3.0);
  EXPECT_TRUE(sim.step());
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_DOUBLE_EQ(csim.next_event_time(), 4.0);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_DOUBLE_EQ(csim.next_event_time(), kTimeInfinity);
  EXPECT_EQ(order, (std::vector<char>{'a', 'h'}));
  EXPECT_EQ(sim.events_fired(), 2u);
}

TEST(ArrivalLane, RejectsABusyLane) {
  Simulator sim;
  sim.schedule_arrival(1.0, [] {});
  EXPECT_THROW(sim.schedule_arrival(2.0, [] {}), InvariantError);
  sim.run();
  sim.schedule_arrival(2.0, [] {});  // free again once fired
  EXPECT_EQ(sim.run(), 1u);
}

TEST(ArrivalLane, RejectsATimeInThePast) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_arrival(5.0, [] {}), InvariantError);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(ArrivalLane, RejectsNonFiniteTimeAndNullCallback) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_arrival(kTimeInfinity, [] {}), InvariantError);
  EXPECT_THROW(sim.schedule_arrival(std::nan(""), [] {}), InvariantError);
  EXPECT_THROW(sim.schedule_arrival(1.0, Simulator::Callback{}),
               InvariantError);
  EXPECT_EQ(sim.pending_count(), 0u);
}

// --- differential: streamed vs pre-scheduled arrivals ------------------------
//
// A seeded event program: a sorted arrival list on a coarse time grid (so
// many arrivals share a timestamp), and handlers that schedule heap events
// (zero delays included, to tie with the arrival that spawned them) and
// cancel earlier ones. Every action is a pure function of (seed, event
// identity), so two runs that fire the same events in the same order make
// the same choices. Run once with every arrival pre-scheduled through
// schedule_at before anything else — the order the lane must reproduce —
// and once streamed through the lane; the firing logs must be identical.

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class EventProgram {
 public:
  struct Fired {
    bool arrival;
    std::uint64_t id;
    double time;
    bool operator==(const Fired&) const = default;
  };

  explicit EventProgram(std::uint64_t seed) : seed_(seed) {
    const std::size_t n = 1 + splitmix(seed) % 60;
    for (std::size_t i = 0; i < n; ++i) {
      arrivals_.push_back(0.25 * static_cast<double>(
                                     splitmix(seed ^ (0x100 + i)) % 16));
    }
    std::stable_sort(arrivals_.begin(), arrivals_.end());
  }

  std::vector<Fired> run(bool streamed) {
    Simulator sim;
    sim_ = &sim;
    log_.clear();
    handles_.clear();
    if (streamed) {
      sim.schedule_arrival(arrivals_[0], Cursor{this, 0});
    } else {
      for (std::size_t i = 0; i < arrivals_.size(); ++i) {
        sim.schedule_at(arrivals_[i], [this, i] { on_arrival(i); });
      }
    }
    // Odd seeds advance in run_until slices first, so the lane's boundary
    // handling is exercised as well as run()'s.
    if (seed_ % 2 == 1) {
      for (double until = 0.5; until < 4.0; until += 0.75) sim.run_until(until);
    }
    sim.run();
    sim_ = nullptr;
    return log_;
  }

 private:
  struct Cursor {
    EventProgram* p;
    std::size_t i;
    void operator()() const {
      if (i + 1 < p->arrivals_.size()) {
        p->sim_->schedule_arrival(p->arrivals_[i + 1], Cursor{p, i + 1});
      }
      p->on_arrival(i);
    }
  };

  void on_arrival(std::size_t i) {
    log_.push_back({true, i, sim_->now()});
    act(splitmix(seed_ ^ (0xa000 + i)));
  }

  void on_heap(std::uint64_t id) {
    log_.push_back({false, id, sim_->now()});
    act(splitmix(seed_ ^ (0xb000000 + id)));
  }

  /// Spawns 0-3 heap events at delays {0, 0.25, 0.5, 0.75} and sometimes
  /// cancels an earlier one, all decided by the bits of `k`.
  void act(std::uint64_t k) {
    const std::uint64_t spawn = k % 4;
    for (std::uint64_t j = 0; j < spawn && handles_.size() < 400; ++j) {
      const std::uint64_t id = handles_.size();
      const double delay = 0.25 * static_cast<double>((k >> (8 + 2 * j)) % 4);
      handles_.push_back(sim_->schedule_in(delay, [this, id] { on_heap(id); }));
    }
    if ((k >> 20) % 3 == 0 && !handles_.empty()) {
      sim_->cancel(handles_[(k >> 24) % handles_.size()]);
    }
  }

  std::uint64_t seed_;
  std::vector<double> arrivals_;
  Simulator* sim_ = nullptr;
  std::vector<EventHandle> handles_;
  std::vector<Fired> log_;
};

TEST(ArrivalLane, StreamedFiringMatchesPreScheduledOn600Programs) {
  std::size_t ties = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    EventProgram program(seed);
    const auto pre = program.run(false);
    const auto streamed = program.run(true);
    ASSERT_EQ(pre, streamed) << "program seed " << seed;
    for (std::size_t i = 1; i < pre.size(); ++i) {
      ties += pre[i].time == pre[i - 1].time ? 1 : 0;
    }
  }
  EXPECT_GT(ties, 10000u);  // the programs really are tie-heavy
}

// --- delay lanes -------------------------------------------------------------

TEST(DelayLane, DeduplicatesByDelayBits) {
  Simulator sim;
  const auto a = sim.delay_lane(0.5);
  const auto b = sim.delay_lane(2.0);
  EXPECT_NE(a, b);
  EXPECT_EQ(sim.delay_lane(0.5), a);
  EXPECT_EQ(sim.delay_lane(0.0), sim.delay_lane(-0.0));
  EXPECT_THROW(sim.delay_lane(-1.0), InvariantError);
  EXPECT_THROW(sim.delay_lane(std::nan("")), InvariantError);
  EXPECT_THROW(sim.schedule_on(99, [] {}), InvariantError);
}

TEST(DelayLane, TryDelayLaneReportsAFullTableInsteadOfThrowing) {
  Simulator sim;
  const auto first = sim.try_delay_lane(1.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(sim.delay_lane(1.0), *first);  // one table, one dedup rule
  std::size_t lanes = 1;
  for (int i = 2; sim.try_delay_lane(static_cast<double>(i)).has_value(); ++i) {
    ++lanes;
    ASSERT_LT(lanes, 100000u);
  }
  EXPECT_GT(lanes, 100u);
  // Delays that already have a lane still resolve; a new one does not.
  EXPECT_EQ(sim.try_delay_lane(1.0), first);
  EXPECT_FALSE(sim.try_delay_lane(0.5).has_value());
  EXPECT_THROW(sim.delay_lane(0.5), InvariantError);
  EXPECT_THROW(sim.try_delay_lane(-1.0), InvariantError);
}

TEST(DelayLane, RejectsANonFiniteDelayAtSetUp) {
  // An infinite delay would otherwise pass set-up and abort the run at the
  // first schedule_on, whose time is no longer finite.
  Simulator sim;
  EXPECT_THROW(sim.delay_lane(kTimeInfinity), InvariantError);
  EXPECT_THROW(sim.delay_lane(-kTimeInfinity), InvariantError);
  const auto lane = sim.delay_lane(1.0);
  EXPECT_EQ(sim.delay_lane(1.0), lane);  // the rejected delays left no lane
  EXPECT_EQ(sim.lane_key_count(), 0u);
}

TEST(DelayLane, FiresAtNowPlusDelayInScheduleOrderWithTheHeap) {
  Simulator sim;
  const auto lane = sim.delay_lane(1.0);
  std::vector<int> order;
  sim.schedule_at(2.0, [&] {
    sim.schedule_at(3.0, [&] { order.push_back(1); });
    sim.schedule_on(lane, [&] { order.push_back(2); });  // also t = 3
    sim.schedule_at(3.0, [&] { order.push_back(3); });
  });
  sim.schedule_at(2.5, [&] {
    sim.schedule_on(lane, [&] { order.push_back(4); });
  });
  EXPECT_EQ(sim.run(), 6u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.5);
}

TEST(DelayLane, CancelIsExactAndCountsStayConsistent) {
  Simulator sim;
  const auto lane = sim.delay_lane(4.0);
  int fired = 0;
  const EventHandle a = sim.schedule_on(lane, [&] { ++fired; });
  const EventHandle b = sim.schedule_on(lane, [&] { ++fired; });
  EXPECT_EQ(sim.pending_count(), 2u);
  EXPECT_EQ(sim.queue_depth(), 0u);  // lane events are not in the heap
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 4.0);
  EXPECT_TRUE(sim.pending(a));
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_FALSE(sim.pending(a));
  EXPECT_TRUE(sim.pending(b));
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_TRUE(sim.cancel(b));
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.next_event_time(), kTimeInfinity);
  EXPECT_EQ(sim.lane_key_count(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(DelayLane, CallbackSeesItsOwnHandleAsStale) {
  Simulator sim;
  const auto lane = sim.delay_lane(1.0);
  EventHandle self;
  bool cancelled_self = true;
  self = sim.schedule_on(lane, [&] { cancelled_self = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(cancelled_self);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(DelayLane, RunUntilStopsBeforeALaterLaneEvent) {
  Simulator sim;
  const auto lane = sim.delay_lane(5.0);
  int fired = 0;
  sim.schedule_on(lane, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(4.0), 0u);
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_EQ(sim.run_until(5.0), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(DelayLane, KeysStayWithinAConstantFactorOfLiveEvents) {
  // Random-order cancels leave stale keys behind the head; compaction must
  // keep the lane's physical size proportional to what is still pending.
  Simulator sim;
  const auto lane = sim.delay_lane(10.0);
  std::vector<EventHandle> live;
  std::uint64_t x = 7;
  for (int i = 0; i < 100000; ++i) {
    live.push_back(sim.schedule_on(lane, [] {}));
    if (live.size() > 64) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::size_t j = (x >> 33) % live.size();
      ASSERT_TRUE(sim.cancel(live[j]));
      live[j] = live.back();
      live.pop_back();
    }
    ASSERT_LE(sim.lane_key_count(), 4 * live.size());
  }
  EXPECT_EQ(sim.pending_count(), live.size());
  EXPECT_EQ(sim.run(), live.size());
  EXPECT_EQ(sim.lane_key_count(), 0u);
}

// --- differential: delay lanes vs schedule_in -------------------------------
//
// A seeded program over 1-4 delay lanes (zero delay and delays on the heap
// events' 0.25 s grid included, so lane and heap events tie), the arrival
// lane and the heap. Every handler spawns heap events through schedule_at
// and lane events through schedule_on, and cancels pending, fired and its
// own handles. The replay swaps every schedule_on for schedule_in with the
// lane's delay — the kernel's old path for these timers — and the two logs
// of firings, cancel() results, pending_count, next_event_time and
// events_fired must match entry for entry.

class LaneProgram {
 public:
  struct Entry {
    char what;  // 'f' fired, 'c' cancel, 's' run slice boundary
    std::uint64_t id;
    double time;
    std::uint64_t count;  // cancel() result, or pending_count at a fire
    double next;          // next_event_time
    std::uint64_t fired;  // events_fired
    bool operator==(const Entry&) const = default;
  };

  explicit LaneProgram(std::uint64_t seed) : seed_(seed) {
    const std::size_t n = 1 + splitmix(seed) % 40;
    for (std::size_t i = 0; i < n; ++i) {
      arrivals_.push_back(0.25 * static_cast<double>(
                                     splitmix(seed ^ (0x300 + i)) % 16));
    }
    std::stable_sort(arrivals_.begin(), arrivals_.end());
    static constexpr double kDelays[] = {0.0, 0.25, 0.5, 0.75, 1.0, 0.1};
    const std::size_t lanes = 1 + splitmix(seed ^ 0x77) % 4;
    for (std::size_t j = 0; j < lanes; ++j) {
      delays_.push_back(kDelays[splitmix(seed ^ (0x900 + j)) % 6]);
    }
  }

  std::vector<Entry> run(bool lanes) {
    Simulator sim;
    sim_ = &sim;
    use_lanes_ = lanes;
    log_.clear();
    handles_.clear();
    lane_ids_.clear();
    if (lanes) {
      for (double d : delays_) lane_ids_.push_back(sim.delay_lane(d));
    }
    sim.schedule_arrival(arrivals_[0], Cursor{this, 0});
    if (seed_ % 2 == 1) {
      for (double until = 0.3; until < 5.0; until += 0.5) {
        sim.run_until(until);
        mark('s', 0);
      }
    }
    sim.run();
    mark('s', 1);
    sim_ = nullptr;
    return log_;
  }

  std::size_t ties() const { return ties_; }

 private:
  struct Cursor {
    LaneProgram* p;
    std::size_t i;
    void operator()() const {
      if (i + 1 < p->arrivals_.size()) {
        p->sim_->schedule_arrival(p->arrivals_[i + 1], Cursor{p, i + 1});
      }
      p->on_fire(1000000 + i);
    }
  };

  void mark(char what, std::uint64_t id, std::uint64_t count = 0) {
    log_.push_back({what, id, sim_->now(), count, sim_->next_event_time(),
                    sim_->events_fired()});
  }

  void on_fire(std::uint64_t id) {
    if (!log_.empty() && log_.back().time == sim_->now()) ++ties_;
    mark('f', id, sim_->pending_count());
    act(splitmix(seed_ ^ (0xc000000 + id)), id);
  }

  /// Spawns 0-3 events (heap or lane, by the bits of `k`) and sometimes
  /// cancels one: an earlier event, pending or fired, or the running one.
  void act(std::uint64_t k, std::uint64_t self) {
    const std::uint64_t spawn = k % 4;
    for (std::uint64_t j = 0; j < spawn && handles_.size() < 300; ++j) {
      const std::uint64_t id = handles_.size();
      const std::uint64_t pick = (k >> (8 + 4 * j)) % 16;
      const auto fire = [this, id] { on_fire(id); };
      if (pick < 8) {
        const double when = sim_->now() + 0.25 * static_cast<double>(pick % 4);
        handles_.push_back(sim_->schedule_at(when, fire));
      } else {
        const std::size_t lane = pick % delays_.size();
        handles_.push_back(use_lanes_
                               ? sim_->schedule_on(lane_ids_[lane], fire)
                               : sim_->schedule_in(delays_[lane], fire));
      }
    }
    const std::uint64_t c = (k >> 24) % 4;
    if (c != 0 && !handles_.empty()) {
      const std::uint64_t target =
          c == 3 && self < handles_.size() ? self : (k >> 28) % handles_.size();
      mark('c', target, sim_->cancel(handles_[target]) ? 1 : 0);
    }
  }

  std::uint64_t seed_;
  std::vector<double> arrivals_;
  std::vector<double> delays_;
  std::vector<Simulator::LaneId> lane_ids_;
  bool use_lanes_ = false;
  Simulator* sim_ = nullptr;
  std::vector<EventHandle> handles_;
  std::vector<Entry> log_;
  std::size_t ties_ = 0;
};

TEST(DelayLane, FiringMatchesScheduleInOn600Programs) {
  std::size_t ties = 0;
  std::size_t cancels = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    LaneProgram program(seed);
    const auto heap_only = program.run(false);
    const auto laned = program.run(true);
    ASSERT_EQ(heap_only.size(), laned.size()) << "program seed " << seed;
    for (std::size_t i = 0; i < laned.size(); ++i) {
      ASSERT_EQ(heap_only[i], laned[i]) << "program seed " << seed
                                        << ", log entry " << i;
      cancels += laned[i].what == 'c' && laned[i].count == 1 ? 1 : 0;
    }
    ties += program.ties();
  }
  EXPECT_GT(ties, 10000u);   // the programs really are tie-heavy
  EXPECT_GT(cancels, 5000u);  // and cancel live events, not only stale ones
}

}  // namespace
}  // namespace eas::sim
