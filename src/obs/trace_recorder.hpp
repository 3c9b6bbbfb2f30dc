// Structured trace recorder: the simulator's flight recorder.
//
// Components already hold a sim::Simulator reference for scheduling, so the
// recorder rides on it (Simulator::recorder(), null when tracing is off) and
// every instrumentation site is a single null check away from free. Events
// are fixed-size 32-byte PODs appended to a preallocated ring buffer —
// recording never allocates, never locks (a run is single-threaded by
// design) and never reads a wall clock: timestamps are the simulated clock,
// passed in by the caller, so a trace is as reproducible as the run itself.
//
// Two export forms:
//   * Chrome trace-event JSON (export_chrome_json) — load the file in
//     Perfetto / chrome://tracing to see per-disk power-state timelines,
//     request service spans and batch/rebuild/fault instants;
//   * a compact binary image (write_binary/read_binary) for archival and
//     programmatic diffing at 32 bytes/event.
//
// Instrumentation sites use the EAS_OBS macro so the whole surface can be
// compiled out with -DEASCHED_NO_OBS=ON; compiled in but disabled it costs
// one predictable branch per site (the null recorder check).
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace eas::util {
class JsonWriter;
}

namespace eas::obs {

// ---------------------------------------------------------------------------
// Vocabulary. Categories select what gets recorded (TraceConfig::categories
// is a bitmask of them); events say what happened. Both are schema-stable:
// the binary format stores the raw values.

enum class Cat : std::uint8_t {
  kRequest = 0,  ///< foreground request lifecycle
  kPower = 1,    ///< disk power-state transitions
  kBatch = 2,    ///< batch formation (WSC tick)
  kRebuild = 3,  ///< re-replication traffic
  kPolicy = 4,   ///< power-policy decisions (timer arm/cancel)
  kFault = 5,    ///< disk death / recovery
  kCache = 6,    ///< cache tier: hits, buffered writes, destage traffic
  kReliability = 7,  ///< reliability tier: deadlines, retries, hedges, shed
};
inline constexpr int kNumCats = 8;

constexpr std::uint32_t cat_bit(Cat c) {
  return 1u << static_cast<std::uint32_t>(c);
}
inline constexpr std::uint32_t kAllCategories = (1u << kNumCats) - 1;

const char* to_string(Cat c);

enum class Ev : std::uint8_t {
  kArrive = 0,        ///< request entered the system       id=req  a=data
  kQueue = 1,         ///< request queued at a disk         id=req  a=disk b=depth c=kind
  kDispatch = 2,      ///< scheduler routed request         id=req  a=disk c=kind
  kServiceBegin = 3,  ///< head movement + transfer start   id=req  a=disk c=kind
  kServiceEnd = 4,    ///< transfer done                    id=req  a=disk c=kind
  kComplete = 5,      ///< completion seen by the system    id=req  a=disk c=kind
  kPowerTransition = 6,  ///< disk changed state            id=disk b=from c=to
  kBatchFormed = 7,   ///< WSC batch assigned               id=seq  a=size
  kRebuildRead = 8,   ///< internal source read issued      id=target a=data b=src
  kRebuildWrite = 9,  ///< internal write onto target       id=target a=data
  kRebuildDone = 10,  ///< rebuild/scrub finished           id=target
  kDiskDown = 11,     ///< fail-stop / transient outage     id=disk
  kDiskBack = 12,     ///< replacement / recovery online    id=disk
  kPolicyArm = 13,    ///< spin-down timer armed            id=disk a=threshold_us
  kPolicyCancel = 14, ///< spin-down timer cancelled        id=disk
  kCacheHit = 15,     ///< request served from the tier     id=req  a=data b=dirty?
  kCacheMiss = 16,    ///< lookup missed, going to disk     id=req  a=data
  kWriteBuffered = 17,  ///< write absorbed by the buffer   id=req  a=data b=home
  kDestageBegin = 18,   ///< destage batch issued           id=disk a=blocks b=reason
  kDestageDone = 19,    ///< one destaged block landed      id=disk a=data
  kDeadlineMiss = 20,   ///< attempt exceeded its deadline  id=req  a=disk b=attempt
  kRetry = 21,          ///< backoff re-dispatch issued     id=req  a=disk b=attempt
  kHedgeIssue = 22,     ///< hedge copy dispatched          id=req  a=disk
  kHedgeWin = 23,       ///< hedge copy completed first     id=req  a=disk
  kShed = 24,           ///< read dropped by admission ctl  id=req  a=disk
  kAbandon = 25,        ///< attempt budget exhausted       id=req  a=disk
};

const char* to_string(Ev e);

/// Category an event belongs to (drives the config mask check).
Cat category_of(Ev e);

/// Power-state names used by the Chrome exporter. Indexed by the raw
/// disk::DiskState value; kept here (rather than depending on eas_disk,
/// which sits *above* obs in the layering) and pinned against
/// disk::to_string by test_obs.
const char* power_state_name(std::uint32_t s);

// ---------------------------------------------------------------------------
// Storage.

/// One recorded event. Fixed 32-byte POD so a ring entry write is two cache
/// lines at worst and the binary image is just the raw array.
struct TraceEvent {
  double time = 0.0;       ///< simulated seconds
  std::uint64_t id = 0;    ///< primary subject (request id, disk id, seq)
  std::uint64_t a = 0;     ///< event-specific argument (see Ev table)
  std::uint32_t b = 0;     ///< secondary argument
  std::uint16_t c = 0;     ///< tertiary argument
  Ev ev = Ev::kArrive;
  Cat cat = Cat::kRequest;
};
static_assert(sizeof(TraceEvent) == 32, "binary trace format is 32 B/event");

struct TraceConfig {
  bool enabled = false;
  /// Bitmask of cat_bit(Cat) values; defaults to everything.
  std::uint32_t categories = kAllCategories;
  /// Ring capacity in events (32 B each). When the run outgrows it the
  /// oldest events are overwritten and dropped() counts them.
  std::size_t capacity = 1u << 16;

  /// Throws InvariantError when enabled with a zero capacity or an empty /
  /// out-of-range category mask.
  void validate() const;
};

/// Bounded, allocation-free-after-construction event recorder.
///
/// Not thread-safe — a recorder belongs to one simulation (one logical
/// timeline), exactly like the simulator it hangs off.
class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig config);

  const TraceConfig& config() const { return config_; }
  bool wants(Cat c) const { return (config_.categories & cat_bit(c)) != 0; }

  /// Core append; all helpers funnel through here. Events arriving while
  /// the category is masked are dropped for free (not counted).
  void record(double t, Ev ev, std::uint64_t id, std::uint64_t a = 0,
              std::uint32_t b = 0, std::uint16_t c = 0) {
    const Cat cat = category_of(ev);
    if (!wants(cat)) return;
    TraceEvent& e = ring_[static_cast<std::size_t>(recorded_ % capacity_)];
    e.time = t;
    e.id = id;
    e.a = a;
    e.b = b;
    e.c = c;
    e.ev = ev;
    e.cat = cat;
    ++recorded_;
  }

  // Named helpers for the instrumentation sites (all inline, hot).
  /// `kind` is the raw disk::RequestKind: 0 for foreground requests, so a
  /// run without tiers records the same bytes it always did. Request ids
  /// are unique only within a kind.
  void request_event(double t, Ev ev, std::uint64_t req, std::uint64_t disk,
                     std::uint32_t depth = 0, std::uint16_t kind = 0) {
    record(t, ev, req, disk, depth, kind);
  }
  void power_transition(double t, std::uint32_t disk, std::uint32_t from,
                        std::uint32_t to) {
    record(t, Ev::kPowerTransition, disk, 0, from,
           static_cast<std::uint16_t>(to));
  }
  void batch_formed(double t, std::uint64_t seq, std::uint64_t size) {
    record(t, Ev::kBatchFormed, seq, size);
  }
  void rebuild_event(double t, Ev ev, std::uint64_t target,
                     std::uint64_t data = 0, std::uint32_t src = 0) {
    record(t, ev, target, data, src);
  }
  void policy_event(double t, Ev ev, std::uint64_t disk,
                    std::uint64_t threshold_us = 0) {
    record(t, ev, disk, threshold_us);
  }
  void cache_event(double t, Ev ev, std::uint64_t id, std::uint64_t a = 0,
                   std::uint32_t b = 0) {
    record(t, ev, id, a, b);
  }
  void reliability_event(double t, Ev ev, std::uint64_t req,
                         std::uint64_t disk, std::uint32_t arg = 0) {
    record(t, ev, req, disk, arg);
  }

  /// Events still held (<= capacity). dropped() is how many older events
  /// the ring overwrote.
  std::size_t size() const {
    return static_cast<std::size_t>(
        recorded_ < capacity_ ? recorded_ : capacity_);
  }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - size(); }
  std::size_t capacity() const { return static_cast<std::size_t>(capacity_); }

  /// i-th surviving event in chronological (record) order; i < size().
  const TraceEvent& event(std::size_t i) const {
    const std::uint64_t first = dropped();
    return ring_[static_cast<std::size_t>((first + i) % capacity_)];
  }

  // --- exporters -----------------------------------------------------------

  /// Whole-document Chrome trace: {"traceEvents":[...]}. `horizon` (>= the
  /// last event time) closes the open power-state spans; pass the run's
  /// horizon so the timeline matches the energy accounting exactly.
  void export_chrome_json(std::ostream& os, double horizon = 0.0) const;

  /// Appends this recorder's events to an already-open JSON array, tagging
  /// every event with `pid` and naming the process `process_name` — lets a
  /// sweep merge many cells into one Perfetto-loadable trace side by side.
  void append_chrome_events(util::JsonWriter& w, int pid,
                            const std::string& process_name,
                            double horizon = 0.0) const;

  /// Compact binary image: 32-byte header + size() raw TraceEvents in
  /// chronological order. read_binary round-trips it (throws
  /// InvariantError on a foreign or truncated stream).
  void write_binary(std::ostream& os) const;
  static std::vector<TraceEvent> read_binary(std::istream& is);

 private:
  TraceConfig config_;
  std::uint64_t capacity_;
  std::uint64_t recorded_ = 0;
  std::vector<TraceEvent> ring_;
};

}  // namespace eas::obs

// ---------------------------------------------------------------------------
// Instrumentation guard. `recorder` is any expression yielding a
// TraceRecorder* (typically sim.recorder()); `call` is the member call to
// make on it. Compiled in (default), a disabled run pays exactly one
// well-predicted null-pointer branch per site; with -DEASCHED_NO_OBS=ON the
// site vanishes entirely and neither argument is evaluated.
#if defined(EASCHED_NO_OBS)
#define EAS_OBS(recorder, call) \
  do {                          \
  } while (0)
#else
#define EAS_OBS(recorder, call)                              \
  do {                                                       \
    if (::eas::obs::TraceRecorder* eas_obs_r_ = (recorder);  \
        eas_obs_r_ != nullptr) {                             \
      eas_obs_r_->call;                                      \
    }                                                        \
  } while (0)
#endif
