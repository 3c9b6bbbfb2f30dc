// Differential test of sim::Simulator against the naive reference queue in
// reference_queue.hpp, which is written from the kernel's contract
// (DESIGN.md §8), not from its code.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "reference_queue.hpp"
#include "sim/simulator.hpp"

namespace eas::sim {
namespace {

using testing::ReferenceQueue;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// What a program observes, entry by entry.
struct Entry {
  char what;           // 'f' fire, 'c' cancel, 'p' step probe, 's' slice end
  std::uint64_t id;    // event fired or cancel target
  double time;         // now()
  std::uint64_t a;     // pending_count() at a fire; cancel() result
  std::uint64_t b;     // pending(target) just before a cancel
  double next;         // next_event_time()
  std::uint64_t fired;  // events_fired()
  bool operator==(const Entry&) const = default;
};

/// A seeded event program over queue Q. A sorted arrival list on a coarse
/// time grid is streamed through the arrival lane, and every handler
/// spawns events through schedule_at, schedule_in (zero delays included)
/// and 1-12 delay lanes (zero delay and delays on the grid included, so
/// events tie across all three), then cancels pending, fired or its own
/// handles, or the head of a lane. Every choice is a pure function of
/// (seed, event id), so two queues that fire the same events in the same
/// order log the same entries.
template <typename Q>
class Program {
 public:
  explicit Program(std::uint64_t seed) : seed_(seed) {
    const std::size_t n = 1 + splitmix(seed) % 40;
    for (std::size_t i = 0; i < n; ++i) {
      arrivals_.push_back(0.25 * static_cast<double>(
                                     splitmix(seed ^ (0x300 + i)) % 16));
    }
    std::stable_sort(arrivals_.begin(), arrivals_.end());
    // Twelve distinct delays; a stride coprime to 12 walks them without
    // repeats, so a program gets as many kernel lanes as it draws.
    static constexpr double kDelays[] = {0.0,   0.25,  0.5,   0.75,
                                         1.0,   0.1,   0.125, 0.375,
                                         0.625, 0.875, 0.3,   0.0625};
    const std::size_t lanes = 1 + splitmix(seed ^ 0x77) % 12;
    const std::size_t first = splitmix(seed ^ 0x900) % 12;
    for (std::size_t j = 0; j < lanes; ++j) {
      delays_.push_back(kDelays[(first + 5 * j) % 12]);
    }
    armed_.resize(lanes);
    front_.resize(lanes);
  }

  std::vector<Entry> run() {
    Q q;
    q_ = &q;
    for (double d : delays_) lanes_.push_back(q.delay_lane(d));
    q.schedule_arrival(arrivals_[0], Cursor{this, 0});
    act(splitmix(seed_ ^ 0x5a5a), kNoSelf);  // events armed before the run
    switch (seed_ % 3) {
      case 0:
        q.run();
        break;
      case 1:  // run_until slices on the grid: the bound is inclusive
        for (int k = 1; k < 24; k += 3) {
          q.run_until(0.25 * k);
          mark('s', 0);
        }
        q.run();
        break;
      default:
        do {
          mark('p', 0);
        } while (q.step());
        break;
    }
    mark('s', 1);
    q_ = nullptr;
    return log_;
  }

  std::size_t ties() const { return ties_; }
  std::size_t head_cancels() const { return head_cancels_; }
  std::size_t lanes() const { return delays_.size(); }

 private:
  using Handle = decltype(std::declval<Q&>().schedule_in(0.0, [] {}));
  static constexpr std::uint64_t kNoSelf = ~std::uint64_t{0};

  struct Cursor {
    Program* p;
    std::size_t i;
    void operator()() const {
      if (i + 1 < p->arrivals_.size()) {
        p->q_->schedule_arrival(p->arrivals_[i + 1], Cursor{p, i + 1});
      }
      p->on_fire(1000000 + i, kNoSelf);
    }
  };

  void mark(char what, std::uint64_t id, std::uint64_t a = 0,
            std::uint64_t b = 0) {
    log_.push_back(
        {what, id, q_->now(), a, b, q_->next_event_time(), q_->events_fired()});
  }

  void on_fire(std::uint64_t id, std::uint64_t self) {
    if (!log_.empty() && log_.back().what == 'f' &&
        log_.back().time == q_->now()) {
      ++ties_;
    }
    mark('f', id, q_->pending_count());
    act(splitmix(seed_ ^ (0xc000000 + id)), self);
  }

  /// Spawns 0-3 events and makes 0-2 cancels, all decided by the bits of
  /// `k`: a cancel targets the running event's own handle, one of the last
  /// few handles (often still pending), any earlier one (often fired) or
  /// the oldest pending event of a lane, which is that lane's head.
  void act(std::uint64_t k, std::uint64_t self) {
    const std::uint64_t spawn = k % 4;
    for (std::uint64_t j = 0; j < spawn && handles_.size() < 300; ++j) {
      const std::uint64_t id = handles_.size();
      const std::uint64_t pick = (k >> (2 + 4 * j)) % 16;
      const auto fire = [this, id] { on_fire(id, id); };
      const double grid = 0.25 * static_cast<double>(pick % 4);
      if (pick < 5) {
        handles_.push_back(q_->schedule_at(q_->now() + grid, fire));
      } else if (pick < 10) {
        handles_.push_back(q_->schedule_in(grid, fire));
      } else {
        const std::size_t lane = splitmix(k ^ (0x40 + j)) % lanes_.size();
        armed_[lane].push_back(id);
        handles_.push_back(q_->schedule_on(lanes_[lane], fire));
      }
    }
    const std::uint64_t cancels = (k >> 16) % 3;
    for (std::uint64_t c = 0; c < cancels && !handles_.empty(); ++c) {
      const std::uint64_t r = splitmix(k ^ c);
      const std::size_t n = handles_.size();
      std::uint64_t target = n - 1 - (r >> 8) % std::min<std::size_t>(n, 6);
      if (r % 8 < 2 && self != kNoSelf) {
        target = self;
      } else if (r % 8 == 2 || r % 8 == 3) {
        target = (r >> 8) % n;
      } else if (r % 8 >= 6) {
        const std::size_t lane = (r >> 8) % armed_.size();
        std::size_t& f = front_[lane];
        while (f < armed_[lane].size() &&
               !q_->pending(handles_[armed_[lane][f]])) {
          ++f;
        }
        if (f < armed_[lane].size()) {
          target = armed_[lane][f];
          ++head_cancels_;
        }
      }
      const bool was_pending = q_->pending(handles_[target]);
      mark('c', target, q_->cancel(handles_[target]) ? 1 : 0,
           was_pending ? 1 : 0);
    }
  }

  std::uint64_t seed_;
  std::vector<double> arrivals_;
  std::vector<double> delays_;
  Q* q_ = nullptr;
  std::vector<decltype(std::declval<Q&>().delay_lane(0.0))> lanes_;
  std::vector<Handle> handles_;
  /// Per program lane: the ids armed on it, in arming order, and the index
  /// of the first one that may still be pending.
  std::vector<std::vector<std::uint64_t>> armed_;
  std::vector<std::size_t> front_;
  std::vector<Entry> log_;
  std::size_t ties_ = 0;
  std::size_t head_cancels_ = 0;
};

TEST(ReferenceQueue, SimulatorMatchesTheReferenceOn800Programs) {
  std::size_t ties = 0;
  std::size_t live_cancels = 0;
  std::size_t dead_cancels = 0;
  std::size_t fires = 0;
  std::size_t head_cancels = 0;
  std::size_t lanes_seen[13] = {};
  for (std::uint64_t seed = 1; seed <= 800; ++seed) {
    Program<ReferenceQueue> reference(seed);
    Program<Simulator> kernel(seed);
    const auto want = reference.run();
    const auto got = kernel.run();
    ASSERT_EQ(want.size(), got.size()) << "program seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i]) << "program seed " << seed << ", log entry "
                                 << i << " ('" << want[i].what << "' "
                                 << want[i].id << " vs '" << got[i].what
                                 << "' " << got[i].id << ")";
      if (got[i].what == 'c') {
        (got[i].a == 1 ? live_cancels : dead_cancels) += 1;
      }
      fires += got[i].what == 'f' ? 1 : 0;
    }
    ties += kernel.ties();
    head_cancels += kernel.head_cancels();
    ++lanes_seen[kernel.lanes()];
  }
  // The programs really are tie-heavy and cancel both live and dead events.
  EXPECT_GT(ties, 25000u);
  EXPECT_GT(live_cancels, 50000u);
  EXPECT_GT(dead_cancels, 50000u);
  EXPECT_GT(fires, 100000u);
  // Lane heads are cancelled often, and every lane count from 1 to 12 runs.
  EXPECT_GT(head_cancels, 20000u);
  for (std::size_t l = 1; l <= 12; ++l) EXPECT_GT(lanes_seen[l], 30u) << l;
}

}  // namespace
}  // namespace eas::sim
