#include "disk/disk.hpp"

#include "obs/trace_recorder.hpp"

namespace eas::disk {

const char* to_string(DiskState s) {
  switch (s) {
    case DiskState::Standby: return "standby";
    case DiskState::SpinningUp: return "spin-up";
    case DiskState::Idle: return "idle";
    case DiskState::Active: return "active";
    case DiskState::SpinningDown: return "spin-down";
  }
  return "?";
}

double DiskStats::total_seconds() const {
  double t = 0.0;
  for (double s : seconds_in_state) t += s;
  return t;
}

double DiskStats::total_joules() const {
  double j = 0.0;
  for (double e : joules_in_state) j += e;
  return j;
}

Disk::Disk(DiskId id, sim::Simulator& sim, DiskPowerParams power,
           DiskPerfParams perf, DiskState initial_state, DiskStatus* status)
    : id_(id),
      sim_(sim),
      power_(power),
      perf_(perf),
      status_(status != nullptr ? *status : own_status_),
      accounted_until_(sim.now()) {
  power_.validate();
  perf_.validate();
  EAS_CHECK_MSG(initial_state == DiskState::Standby ||
                    initial_state == DiskState::Idle,
                "disks must start settled (standby or idle)");
  status_ = DiskStatus{initial_state, sim.now(), -1.0, 0};
}

double Disk::power_of(DiskState s) const {
  switch (s) {
    case DiskState::Standby: return power_.standby_watts;
    case DiskState::SpinningUp: return power_.spinup_watts;
    case DiskState::Idle: return power_.idle_watts;
    case DiskState::Active: return power_.active_watts;
    case DiskState::SpinningDown: return power_.spindown_watts;
  }
  return 0.0;
}

void Disk::flush_accounting() {
  const sim::SimTime now = sim_.now();
  EAS_ASSERT_MSG(now >= accounted_until_,
                 "accounting horizon ahead of the clock");
  const double dt = now - accounted_until_;
  if (dt > 0.0) {
    const int s = static_cast<int>(state());
    stats_.seconds_in_state[s] += dt;
    stats_.joules_in_state[s] += dt * power_of(state());
    // Powers and dt are non-negative, so the meters can only grow; a
    // negative reading means the accounting itself is corrupt.
    EAS_ASSERT_MSG(stats_.joules_in_state[s] >= 0.0,
                   "negative energy meter in state " << to_string(state()));
  }
  accounted_until_ = now;
}

namespace {

/// Legal edges of the §2 power-state machine (row = from, col = to). Any
/// transition outside this table is a scheduler/policy bug, not a modelling
/// choice: hardware cannot e.g. abort a spin-down or jump Standby->Active.
constexpr bool kLegalTransition[kNumDiskStates][kNumDiskStates] = {
    //                to: Standby SpinUp Idle  Active SpinDown
    /* from Standby  */ {false, true, false, false, false},
    /* from SpinUp   */ {false, false, true, true, false},
    /* from Idle     */ {false, false, false, true, true},
    /* from Active   */ {false, false, true, false, false},
    /* from SpinDown */ {true, false, false, false, false},
};

}  // namespace

void Disk::transition_to(DiskState next) {
  EAS_CHECK_MSG(
      kLegalTransition[static_cast<int>(state())][static_cast<int>(next)],
      "illegal power transition " << to_string(state()) << " -> "
                                  << to_string(next) << " on disk " << id_);
  flush_accounting();
  EAS_OBS(sim_.recorder(),
          power_transition(sim_.now(), id_, static_cast<std::uint32_t>(state()),
                           static_cast<std::uint32_t>(next)));
  status_.state = next;
  status_.state_since = sim_.now();
}

void Disk::check_depth() const {
  EAS_ASSERT(status_.queued_requests == queue_.size() + (in_service_ ? 1 : 0));
}

void Disk::submit(const Request& r) {
  // A zero-byte request would give the service-time model nothing to do and
  // silently skew per-request metrics; rejecting it here keeps every queue
  // entry meaningful.
  EAS_REQUIRE_MSG(r.size_bytes > 0,
                  "zero-size request " << r.id << " submitted to disk " << id_);
  status_.last_request_time = sim_.now();
  // A request submitted while the platters are not spinning will have waited
  // on a power transition by the time it is serviced.
  const bool disk_was_down = state() == DiskState::Standby ||
                             state() == DiskState::SpinningUp ||
                             state() == DiskState::SpinningDown;
  queue_.push_back(Pending{r, disk_was_down});
  ++status_.queued_requests;
  check_depth();
  EAS_OBS(sim_.recorder(),
          request_event(sim_.now(), obs::Ev::kQueue, r.id, id_,
                        static_cast<std::uint32_t>(queued_requests()),
                        static_cast<std::uint16_t>(r.kind)));

  switch (state()) {
    case DiskState::Idle:
      start_service();
      break;
    case DiskState::Active:
      if (!in_service_) start_service();  // re-entrant submit from callback
      break;
    case DiskState::Standby:
      spin_up();
      break;
    case DiskState::SpinningUp:
      break;  // serviced when the spin-up completes
    case DiskState::SpinningDown:
      wake_after_spindown_ = true;
      break;
  }
}

std::vector<Request> Disk::take_pending() {
  std::vector<Request> drained;
  drained.reserve(queue_.size());
  for (const Pending& p : queue_) drained.push_back(p.request);
  queue_.clear();
  status_.queued_requests -= drained.size();
  check_depth();
  // The only reason to bounce back from a spin-down was the queued work
  // that just left.
  wake_after_spindown_ = false;
  return drained;
}

bool Disk::remove_pending(RequestId id, RequestKind kind) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->request.id == id && it->request.kind == kind) {
      queue_.erase(it);
      --status_.queued_requests;
      check_depth();
      // Mirror take_pending(): if the removed entry was the only reason to
      // bounce back from an in-flight spin-down, drop the wake.
      if (queue_.empty()) wake_after_spindown_ = false;
      return true;
    }
  }
  return false;
}

const Request* Disk::oldest_queued_read() const {
  for (const Pending& p : queue_) {
    if (p.request.is_read && !is_internal(p.request.kind)) return &p.request;
  }
  return nullptr;
}

void Disk::spin_up() {
  switch (state()) {
    case DiskState::Standby: {
      transition_to(DiskState::SpinningUp);
      ++stats_.spin_ups;
      sim_.schedule_in(power_.spinup_seconds, [this] { on_spinup_done(); });
      break;
    }
    case DiskState::SpinningDown:
      wake_after_spindown_ = true;
      break;
    case DiskState::SpinningUp:
    case DiskState::Idle:
    case DiskState::Active:
      break;  // already spinning (or about to be)
  }
}

void Disk::spin_down() {
  EAS_REQUIRE_MSG(state() == DiskState::Idle,
                  "spin_down from " << to_string(state()) << " on disk "
                                    << id_);
  EAS_REQUIRE_MSG(queue_.empty() && !in_service_,
                  "spin_down with queued work on disk " << id_);
  transition_to(DiskState::SpinningDown);
  ++stats_.spin_downs;
  sim_.schedule_in(power_.spindown_seconds, [this] { on_spindown_done(); });
}

void Disk::on_spinup_done() {
  EAS_CHECK(state() == DiskState::SpinningUp);
  if (!queue_.empty()) {
    start_service();
  } else {
    transition_to(DiskState::Idle);
    if (on_idle_) on_idle_(*this);
  }
}

void Disk::on_spindown_done() {
  EAS_CHECK(state() == DiskState::SpinningDown);
  transition_to(DiskState::Standby);
  if (wake_after_spindown_) {
    wake_after_spindown_ = false;
    spin_up();
  }
}

void Disk::start_service() {
  EAS_CHECK(!in_service_);
  EAS_CHECK(!queue_.empty());
  if (state() != DiskState::Active) transition_to(DiskState::Active);
  current_ = queue_.front().request;
  current_waited_spinup_ = queue_.front().waited_for_spin;
  queue_.pop_front();
  in_service_ = true;
  current_started_ = sim_.now();
  EAS_OBS(sim_.recorder(),
          request_event(sim_.now(), obs::Ev::kServiceBegin, current_.id, id_,
                        0, static_cast<std::uint16_t>(current_.kind)));
  sim_.schedule_in(perf_.service_seconds(current_.size_bytes),
                   [this] { complete_service(); });
}

void Disk::complete_service() {
  EAS_CHECK(state() == DiskState::Active);
  EAS_CHECK(in_service_);
  in_service_ = false;
  --status_.queued_requests;
  check_depth();
  ++stats_.requests_served;
  EAS_OBS(sim_.recorder(),
          request_event(sim_.now(), obs::Ev::kServiceEnd, current_.id, id_, 0,
                        static_cast<std::uint16_t>(current_.kind)));

  Completion c;
  c.request = current_;
  c.disk = id_;
  c.service_start = current_started_;
  c.completion_time = sim_.now();
  c.waited_for_spinup = current_waited_spinup_;
  if (on_completion_) on_completion_(c);

  // The completion callback may have submitted more work re-entrantly.
  if (!in_service_) {
    if (!queue_.empty()) {
      start_service();
    } else if (state() == DiskState::Active) {
      transition_to(DiskState::Idle);
      if (on_idle_) on_idle_(*this);
    }
  }
}

void Disk::finalize(sim::SimTime horizon) {
  EAS_REQUIRE_MSG(horizon >= accounted_until_,
                  "finalize horizon precedes accounted time");
  const double dt = horizon - accounted_until_;
  if (dt > 0.0) {
    const int s = static_cast<int>(state());
    stats_.seconds_in_state[s] += dt;
    stats_.joules_in_state[s] += dt * power_of(state());
  }
  accounted_until_ = horizon;
  EAS_ENSURE_MSG(stats_.total_joules() >= 0.0 && stats_.total_seconds() >= 0.0,
                 "negative cumulative accounting on disk " << id_);
}

}  // namespace eas::disk
