// Naive reference event queue, written from the kernel's contract
// (DESIGN.md §8) rather than from src/sim, as the oracle for
// sim::Simulator's differential test (test_sim_reference.cpp):
//
//  * events fire in (time, seq) order; schedule_at, schedule_in and
//    schedule_on draw seq from one counter, so equal-time events fire in
//    schedule order;
//  * schedule_on(lane, fn) is schedule_in(lane's delay, fn);
//  * the arrival lane holds at most one event, keyed with seq 0, so it wins
//    every time tie;
//  * cancel() returns true iff the event has neither fired nor been
//    cancelled and is not the one firing right now; a cancelled event never
//    fires;
//  * pending_count() counts the events still to fire, next_event_time() is
//    the earliest of their times (infinity when none), events_fired() counts
//    fires, and run_until(t) fires everything at or before t, then sets the
//    clock to t.
//
// Deliberately naive: a std::priority_queue of (time, seq, id) entries, a
// set of pending ids and a set of cancelled ids whose entries are dropped
// as they surface. Speed is no concern; only the contract is.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <utility>
#include <vector>

namespace eas::testing {

class ReferenceQueue {
 public:
  using Id = std::uint64_t;
  using LaneId = std::size_t;

  double now() const { return now_; }

  Id schedule_at(double when, std::function<void()> fn) {
    return push(when, next_seq_++, std::move(fn));
  }
  Id schedule_in(double delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  LaneId delay_lane(double delay) {
    delays_.push_back(delay);
    return delays_.size() - 1;
  }
  Id schedule_on(LaneId lane, std::function<void()> fn) {
    return schedule_in(delays_[lane], std::move(fn));
  }
  void schedule_arrival(double when, std::function<void()> fn) {
    push(when, 0, std::move(fn));
  }

  bool pending(Id id) const { return pending_.count(id) != 0; }
  bool cancel(Id id) {
    if (pending_.erase(id) == 0) return false;
    cancelled_.insert(id);
    return true;
  }

  std::size_t pending_count() const { return pending_.size(); }
  double next_event_time() {
    drop_cancelled();
    return queue_.empty() ? std::numeric_limits<double>::infinity()
                          : queue_.top().time;
  }
  std::uint64_t events_fired() const { return fired_; }

  bool step() { return fire_one(std::numeric_limits<double>::infinity()); }
  std::uint64_t run() {
    std::uint64_t n = 0;
    while (fire_one(std::numeric_limits<double>::infinity())) ++n;
    return n;
  }
  std::uint64_t run_until(double until) {
    std::uint64_t n = 0;
    while (fire_one(until)) ++n;
    now_ = until;
    return n;
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    Id id;
    bool operator>(const Entry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  Id push(double when, std::uint64_t seq, std::function<void()> fn) {
    const Id id = next_id_++;
    queue_.push({when, seq, id});
    pending_.insert(id);
    fns_[id] = std::move(fn);
    return id;
  }

  void drop_cancelled() {
    while (!queue_.empty() && cancelled_.count(queue_.top().id) != 0) {
      queue_.pop();
    }
  }

  bool fire_one(double until) {
    drop_cancelled();
    if (queue_.empty() || queue_.top().time > until) return false;
    const Entry e = queue_.top();
    queue_.pop();
    pending_.erase(e.id);  // a handler cancelling itself gets false
    now_ = e.time;
    ++fired_;
    std::function<void()> fn = std::move(fns_[e.id]);
    fns_.erase(e.id);
    fn();
    return true;
  }

  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  Id next_id_ = 0;
  std::uint64_t fired_ = 0;
  std::vector<double> delays_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::set<Id> pending_;
  std::set<Id> cancelled_;
  std::map<Id, std::function<void()>> fns_;
};

}  // namespace eas::testing
