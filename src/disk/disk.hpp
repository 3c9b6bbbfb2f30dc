// Disk entity: five-state power machine + FCFS service queue + energy meter.
//
// This is the DiskSim substitute. A disk is driven entirely by simulator
// events; the storage system submits requests, a power policy calls
// spin_down()/spin_up(), and the disk reports completions and idle
// transitions through callbacks.
//
// State machine:
//
//   Standby --spin_up()--> SpinningUp --(T_up)--> Active (queue non-empty)
//                                             \-> Idle   (queue empty)
//   Idle --submit()--> Active --(queue drains)--> Idle [on_idle fires]
//   Idle --spin_down()--> SpinningDown --(T_down)--> Standby
//   Standby/SpinningDown --submit()--> spin-up is started (after the
//       in-flight spin-down completes; hardware cannot abort a spin-down)
//
// Energy accounting integrates power over the time spent in each state and
// is flushed on every transition, so stats are exact at any finalize() time.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "disk/params.hpp"
#include "disk/request.hpp"
#include "sim/simulator.hpp"
#include "util/ids.hpp"

namespace eas::disk {

enum class DiskState : int {
  Standby = 0,
  SpinningUp = 1,
  Idle = 2,
  Active = 3,
  SpinningDown = 4,
};

inline constexpr int kNumDiskStates = 5;
const char* to_string(DiskState s);

/// A disk's live status row — the §2.2 online information model, and all a
/// scheduler may know of the disk. The disk keeps these facts here only.
struct DiskStatus {
  DiskState state = DiskState::Standby;
  double state_since = 0.0;         ///< when the disk entered `state`
  double last_request_time = -1.0;  ///< T_last (Eq. 5); < 0 before any
  std::size_t queued_requests = 0;  ///< P(d_k) (Eq. 7), in service included
};

/// Per-disk counters; all times/energies are cumulative since construction
/// and exact as of the last flush (finalize() flushes to a horizon).
struct DiskStats {
  std::array<double, kNumDiskStates> seconds_in_state{};
  std::array<double, kNumDiskStates> joules_in_state{};
  std::uint64_t spin_ups = 0;
  std::uint64_t spin_downs = 0;
  std::uint64_t requests_served = 0;

  double total_seconds() const;
  double total_joules() const;
  double seconds(DiskState s) const {
    return seconds_in_state[static_cast<int>(s)];
  }
  double joules(DiskState s) const {
    return joules_in_state[static_cast<int>(s)];
  }
};

class Disk {
 public:
  using CompletionCallback = std::function<void(const Completion&)>;
  /// Fired when the disk transitions Active -> Idle (queue drained) or
  /// SpinningUp -> Idle (spun up with nothing to do). Power policies hang
  /// their spin-down timers off this.
  using IdleCallback = std::function<void(Disk&)>;

  /// `status` is the disk's row in its owner's table; without one the disk
  /// keeps its own.
  Disk(DiskId id, sim::Simulator& sim, DiskPowerParams power,
       DiskPerfParams perf, DiskState initial_state = DiskState::Standby,
       DiskStatus* status = nullptr);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  DiskId id() const { return id_; }
  DiskState state() const { return status_.state; }
  const DiskStatus& status() const { return status_; }
  const DiskPowerParams& power_params() const { return power_; }

  void set_completion_callback(CompletionCallback cb) {
    on_completion_ = std::move(cb);
  }
  void set_idle_callback(IdleCallback cb) { on_idle_ = std::move(cb); }

  /// Submits a request. Wakes the disk if necessary; the request is serviced
  /// FCFS once the platters are spinning.
  void submit(const Request& r);

  /// Fault path: removes and returns every queued (not yet in service)
  /// request, in queue order, so the storage system can fail them over to a
  /// surviving replica. The in-service transfer, if any, still completes —
  /// the head already reached the data (documented simplification: a real
  /// fail-stop would lose it). Any pending wake-after-spin-down is dropped
  /// with the queue.
  std::vector<Request> take_pending();

  /// Reliability path: removes the first queued (not yet in service) request
  /// with this id and kind — a primary and its hedge copy share an id and
  /// may share a queue. Returns false when no queued entry matches — the
  /// request is in service (it will complete regardless; the head already
  /// moved) or was never here. Queue order of the survivors is preserved.
  bool remove_pending(RequestId id, RequestKind kind);

  /// Reliability path: the oldest queued foreground or hedge read (FCFS
  /// order — front of the queue first), or null when there is none. The
  /// in-service request is never a candidate. The pointer is invalidated by
  /// the next queue mutation.
  const Request* oldest_queued_read() const;

  /// Power-policy entry point: begin spinning down. Only legal from Idle;
  /// calling in any other state is an invariant violation (policies must
  /// check state(), which the bundled policies do via cancelled timers).
  void spin_down();

  /// Power-policy entry point: begin spinning up (e.g. oracle pre-spin).
  /// Legal from Standby; a no-op in SpinningUp/Idle/Active; from
  /// SpinningDown it marks a wake-up so the disk bounces back afterwards.
  void spin_up();

  /// P(d_k), the in-service request included.
  std::size_t queued_requests() const { return status_.queued_requests; }

  /// Flushes accounting up to `horizon` (>= the last transition). Call once
  /// at the end of a run before reading stats.
  void finalize(sim::SimTime horizon);

  const DiskStats& stats() const { return stats_; }

 private:
  void transition_to(DiskState next);
  void flush_accounting();
  double power_of(DiskState s) const;
  void start_service();
  void complete_service();
  void on_spinup_done();
  void on_spindown_done();
  /// The row's depth is counted at each queue change; asserts it is right.
  void check_depth() const;

  DiskId id_;
  sim::Simulator& sim_;
  DiskPowerParams power_;
  DiskPerfParams perf_;

  DiskStatus own_status_;
  DiskStatus& status_;
  sim::SimTime accounted_until_ = 0.0;

  struct Pending {
    Request request;
    // Whether the request arrived while the platters were not spinning (it
    // will have waited on a power transition when serviced).
    bool waited_for_spin = false;
  };
  std::deque<Pending> queue_;
  bool in_service_ = false;
  Request current_{};
  sim::SimTime current_started_ = 0.0;
  bool current_waited_spinup_ = false;
  bool wake_after_spindown_ = false;

  DiskStats stats_;
  CompletionCallback on_completion_;
  IdleCallback on_idle_;
};

}  // namespace eas::disk
