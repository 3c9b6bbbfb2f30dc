// Deterministic discrete-event simulation kernel.
//
// This replaces the paper's use of OMNeT++: a monotonic simulated clock, an
// event queue ordered by (time, insertion sequence), and cancellable event
// handles. Components (disks, power manager, scheduler, workload source)
// interact only by scheduling callbacks, which keeps the storage-system wiring
// identical in spirit to the paper's OMNeT++/DiskSim co-simulation.
//
// Determinism guarantees:
//  * ties in event time fire in schedule order (stable sequence numbers);
//  * the clock never moves backwards (scheduling in the past is an invariant
//    violation, not a silent reorder).
//
// Storage layer (see DESIGN.md §8 for the full rationale):
//  * events live in a slot pool (free-list recycled, generation-counted) and
//    their callbacks are sim::InlineCallback, so scheduling a typical
//    capture allocates nothing;
//  * every queue holds the same (time, seq, generation) key: a binary heap
//    for events whose delays vary, and FIFO lanes for the arrival
//    (schedule_arrival, lane 0, sequence 0 so it wins time ties) and for
//    fixed-delay events (schedule_on): timers and disk service completions;
//  * one cancel rule for all of them: cancel() recycles the slot and leaves
//    the key behind, stale, for its queue to drop.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_callback.hpp"
#include "util/check.hpp"

namespace eas::obs {
class TraceRecorder;
}

namespace eas::sim {

/// Simulated time in seconds. Double gives ~microsecond resolution over the
/// multi-day traces used in the evaluation, far below the millisecond I/O
/// times that matter.
using SimTime = double;

inline constexpr SimTime kTimeInfinity = std::numeric_limits<SimTime>::infinity();

/// Token identifying a scheduled event; used for cancellation. Default
/// constructed handles are null.
///
/// A handle is a (slot index, generation) pair. Slots are recycled after an
/// event fires or is cancelled, and every release bumps the slot's
/// generation, so a stale handle — one whose event already fired or was
/// cancelled — mismatches the slot's current generation and is rejected
/// without any lookaside table. Generations are 32-bit: a single slot would
/// need ~4 billion reuses for a stale handle to alias, far beyond any run.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return gen_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint32_t gen)
      : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;  // live generations are odd; 0 means null
};

/// Event-driven simulator with a run-to-completion loop.
///
/// Not thread-safe by design: the whole point of DES is a single logical
/// timeline. All callbacks execute on the caller's thread inside run().
class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator() : lanes_(1) {}  // lane 0: the arrival lane
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at 0.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (>= now()). Returns a handle that
  /// can cancel the event before it fires.
  ///
  /// Templated so the callable is constructed *in place* inside the event
  /// slot — a lambda at the call site materialises straight into pooled
  /// storage with no intermediate Callback move.
  template <typename F>
  EventHandle schedule_at(SimTime when, F&& fn) {
    EAS_REQUIRE_MSG(std::isfinite(when), "event time must be finite");
    EAS_REQUIRE_MSG(when >= now_, "cannot schedule in the past: when="
                                      << when << " now=" << now_);
    return enqueue(kHeap, when, fill_slot(std::forward<F>(fn)));
  }

  /// Schedules `fn` after a non-negative delay.
  template <typename F>
  EventHandle schedule_in(SimTime delay, F&& fn) {
    EAS_REQUIRE_MSG(delay >= 0.0, "negative delay " << delay);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Identifies a delay lane; see delay_lane().
  using LaneId = std::uint32_t;

  /// Returns the lane for events armed exactly `delay` (finite, >= 0) after
  /// now(). Lanes are deduplicated by the bits of the delay, so owners that
  /// share a delay share a lane; an owner resolves its lanes once at set-up
  /// and keeps the ids, which are valid for this simulator only. At most
  /// kMaxLanes - 1 distinct delays.
  LaneId delay_lane(SimTime delay);

  /// delay_lane(delay), or nullopt when `delay` has no lane yet and every
  /// lane is taken. For owners that can fall back to schedule_in.
  std::optional<LaneId> try_delay_lane(SimTime delay);

  /// Schedules `fn` on `lane`, i.e. at now() + the lane's delay — the same
  /// time, and the same next sequence number, that schedule_in(delay, fn)
  /// would give it, so the firing order is exactly schedule_in's. The
  /// returned handle works with cancel() and pending() like any other.
  template <typename F>
  EventHandle schedule_on(LaneId lane, F&& fn) {
    // Lanes carry the per-request tier timers: a capture that spills to the
    // heap would cost an allocation per request.
    static_assert(Callback::stores_inline<F>(),
                  "lane callbacks must fit InlineCallback's inline buffer");
    EAS_REQUIRE_MSG(lane != kArrivalLane && lane < lanes_.size(),
                    "unknown delay lane " << lane);
    const SimTime when = now_ + lanes_[lane].delay;
    EAS_REQUIRE_MSG(std::isfinite(when), "event time must be finite");
    return enqueue(lane, when, fill_slot(std::forward<F>(fn)));
  }

  /// Arms the arrival lane: `fn` fires at absolute time `when` (>= now()).
  /// The lane holds at most one pending event, and a trace replay re-arms it
  /// from inside its own callback for the next record. Its keys carry
  /// sequence number 0, so at equal time it fires before every other event
  /// — the order the replay would get by pre-scheduling one event per
  /// record up front, whose sequence numbers would all precede anything
  /// scheduled later. The lane event cannot be cancelled.
  template <typename F>
  void schedule_arrival(SimTime when, F&& fn) {
    static_assert(Callback::stores_inline<F>(),
                  "the arrival callback must fit InlineCallback's inline "
                  "buffer (it re-arms once per trace record)");
    EAS_REQUIRE_MSG(std::isfinite(when), "arrival time must be finite");
    EAS_REQUIRE_MSG(when >= now_, "cannot schedule an arrival in the past: when="
                                      << when << " now=" << now_);
    EAS_REQUIRE_MSG(lanes_[kArrivalLane].live == 0,
                    "arrival lane already holds a pending event");
    enqueue(kArrivalLane, when, fill_slot(std::forward<F>(fn)));
  }

  /// Cancels a pending event in O(1) plus amortized queue upkeep: the slot
  /// is recycled at once and the event's key, now stale, is dropped by its
  /// queue later. Returns true if the event was still pending (i.e. this
  /// call prevented it from firing). Safe to call with null or already-fired
  /// handles.
  bool cancel(EventHandle h);

  /// True if the event is scheduled and not yet fired/cancelled.
  bool pending(EventHandle h) const {
    return h.valid() && h.slot_ < meta_.size() && meta_[h.slot_].gen == h.gen_;
  }

  /// Number of events waiting to fire, the arrival lane's and every delay
  /// lane's included.
  std::size_t pending_count() const {
    std::size_t n = heap_live_;
    for (const Lane& l : lanes_) n += l.live;
    return n;
  }

  /// Keys physically held by the heap, stale ones included. At most twice
  /// the heap's live events (see settle_heap); exposed so tests can pin
  /// that bound.
  std::size_t queue_depth() const { return heap_.size(); }

  /// Keys physically held by the lanes, stale ones included. Stays within a
  /// constant factor of the live lane events (see compact_lane); exposed so
  /// tests can pin that bound.
  std::size_t lane_key_count() const {
    std::size_t n = 0;
    for (const Lane& l : lanes_) n += l.keys.size();
    return n;
  }

  /// Runs until the queue drains. Returns the number of events fired.
  std::uint64_t run();

  /// Runs events with time <= `until`, then advances the clock to `until`
  /// (even if idle). Returns the number of events fired.
  std::uint64_t run_until(SimTime until);

  /// Fires exactly one event if any is pending. Returns false on empty queue.
  bool step();

  /// Time of the next pending event, or kTimeInfinity. Exact and const:
  /// the heap's top key and every lane's head key are always live.
  SimTime next_event_time() const {
    std::uint64_t bits = lane_top_.time_bits;
    if (!heap_.empty() && heap_.front().time_bits < bits) {
      bits = heap_.front().time_bits;
    }
    return bits == kNoEntry.time_bits ? kTimeInfinity
                                      : std::bit_cast<SimTime>(bits);
  }

  /// Total events fired over the simulator's lifetime.
  std::uint64_t events_fired() const { return fired_; }

  /// Optional trace recorder shared by every component on this timeline.
  /// The simulator itself never records — it just carries the pointer so
  /// components that already hold the sim (disks, policies, the storage
  /// system) reach observability without new plumbing. Null when tracing is
  /// off; instrumentation sites go through EAS_OBS, which branches on that.
  /// Non-owning: the storage system owns the recorder and outlives the runs.
  obs::TraceRecorder* recorder() const { return recorder_; }
  void set_recorder(obs::TraceRecorder* r) { recorder_ = r; }

 private:
  static constexpr std::uint32_t kNullIndex =
      std::numeric_limits<std::uint32_t>::max();

  /// Keys pack (seq, slot) into one 64-bit word: the low kSlotBits hold the
  /// slot index, the high bits the schedule sequence number. Both limits
  /// fail loudly (EAS_CHECK) rather than wrap: 2^24 simultaneous events and
  /// 2^40 total schedules are orders of magnitude beyond any sweep in this
  /// repo.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  /// Queue ids: lanes are 0..kMaxLanes-1, lane 0 is the arrival lane, and
  /// kHeap names the heap.
  static constexpr std::uint32_t kArrivalLane = 0;
  static constexpr std::uint32_t kMaxLanes = 256;
  static constexpr std::uint32_t kHeap = kMaxLanes;

  /// Per-slot bookkeeping. `gen` is odd while the slot is alive and even
  /// while it is free; handles and keys are only ever minted with odd
  /// generations, so they match `gen` iff they name the slot's current live
  /// incarnation. `link` holds the id of the queue holding the slot's key
  /// while alive and the next free slot while free (the generation check
  /// always runs first, so the other meaning is never read).
  struct SlotMeta {
    std::uint32_t gen = 0;
    std::uint32_t link = kNullIndex;
  };
  static_assert(sizeof(SlotMeta) == 8);

  /// Event times are non-negative finite doubles (the clock starts at 0 and
  /// never runs backwards), and for that range the IEEE-754 bit pattern is
  /// order-isomorphic to the value: t1 < t2 iff bits(t1) < bits(t2) as
  /// unsigned integers. Adding +0.0 collapses -0.0 (whose sign bit would
  /// otherwise compare huge) onto +0.0 and changes no other value.
  static std::uint64_t time_to_bits(SimTime t) {
    return std::bit_cast<std::uint64_t>(t + 0.0);
  }

  /// Queue key. With the time stored as ordered bits, (time, seq) ordering
  /// is one branchless 128-bit integer compare; seq is unique per pending
  /// key, so the low slot bits never decide it. `gen` is the slot's
  /// generation when the key was made: once it no longer matches, the event
  /// was cancelled and the key is stale.
  struct Key {
    std::uint64_t time_bits;  // time_to_bits(when); see above
    std::uint64_t seq_slot;   // (seq << kSlotBits) | slot
    std::uint32_t gen;

    SimTime time() const {  // simulated clock accessor, not libc time()
      return std::bit_cast<SimTime>(time_bits);
    }
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot) & (kMaxSlots - 1);
    }
    bool fires_before(const Key& o) const {
      using U = unsigned __int128;
      return ((U{time_bits} << 64) | seq_slot) <
             ((U{o.time_bits} << 64) | o.seq_slot);
    }
  };
  /// An empty queue's top: every real key fires before it.
  static constexpr Key kNoEntry{~std::uint64_t{0}, ~std::uint64_t{0}, 0};

  /// A FIFO lane. The arrival lane holds one key at a time; a delay lane's
  /// events are armed at now() + a fixed delay, and the clock never runs
  /// backwards and IEEE addition rounds monotonically, so arming order is
  /// (time, seq) order. Keys [head, keys.size()) are pending or stale, with
  /// keys[head] always live; [0, head) is consumed.
  struct Lane {
    SimTime delay = 0.0;
    std::vector<Key> keys;
    std::uint32_t head = 0;
    std::uint32_t live = 0;
  };

  /// Callback storage is chunked so slot addresses are *stable*: growing the
  /// pool never moves a live callback. That stability is what lets
  /// consume_slot invoke the callable in place even when the callback itself
  /// schedules new events and grows the pool under its own feet. 1024 slots
  /// per chunk = 64 KiB allocations.
  ///
  /// Chunks are *raw* storage: slot s's Callback is placement-constructed
  /// the first time acquire_slot mints s and destroyed in ~Simulator, so
  /// allocating a chunk never touches its 64 KiB (a value-initialized
  /// Callback array would memset all of it up front).
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  std::byte* slot_storage(std::uint32_t s) {
    return fns_[s >> kChunkShift].get() +
           std::size_t{s & (kChunkSize - 1)} * sizeof(Callback);
  }
  Callback& fn_at(std::uint32_t s) {
    return *std::launder(reinterpret_cast<Callback*>(slot_storage(s)));
  }

  std::uint32_t acquire_slot();
  /// Acquires a slot and constructs `fn` in it, in place.
  template <typename F>
  std::uint32_t fill_slot(F&& fn) {
    // Raw lambdas are never null; wrapper types (Callback, std::function)
    // can be, and an empty one must fail loudly here, not at fire time.
    if constexpr (requires { static_cast<bool>(fn); }) {
      EAS_REQUIRE_MSG(static_cast<bool>(fn), "null event callback");
    }
    const std::uint32_t s = acquire_slot();
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      fn_at(s) = std::forward<F>(fn);
    } else {
      fn_at(s).emplace(std::forward<F>(fn));
    }
    return s;
  }
  /// Keys alive slot `s` at time `when` (sequence 0 on the arrival lane,
  /// the next number elsewhere) and pushes the key onto queue `q`.
  EventHandle enqueue(std::uint32_t q, SimTime when, std::uint32_t s);
  /// Returns slot `s`, whose generation is already even, to the free list.
  void release_slot(std::uint32_t s) {
    meta_[s].link = free_head_;
    free_head_ = s;
  }
  /// Invokes slot `s`'s callback in place and then frees the slot. The
  /// caller has already bumped the slot's generation.
  void consume_slot(std::uint32_t s);
  bool stale(const Key& k) const { return k.gen != meta_[k.slot()].gen; }
  /// Pops stale keys off the heap's top, then drops every stale key once
  /// they outnumber the live ones.
  void settle_heap();
  /// Skips stale keys at the lane's head, then compacts when stale keys
  /// outnumber live ones or the consumed prefix outgrows the rest.
  void compact_lane(Lane& l);
  /// Recomputes lane_top_ from every lane's head.
  void update_lane_top();
  /// Fires the next event by (time, seq) — the heap's top or lane_top_ — if
  /// its time is at most `until_bits` (ordered time bits). Returns false
  /// otherwise, including when nothing is pending.
  bool fire_next(std::uint64_t until_bits);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  /// Slot pool: fn_at(s) is slot s's callback, meta_[s] its bookkeeping.
  /// fns_ holds raw storage for kChunkSize callbacks per chunk; slots
  /// [0, meta_.size()) hold constructed Callback objects.
  std::vector<std::unique_ptr<std::byte[]>> fns_;
  std::vector<SlotMeta> meta_;
  std::uint32_t free_head_ = kNullIndex;
  /// Binary min-heap by (time, seq) of the events with varying delays. Its
  /// top is always live; heap_live_ counts its live keys.
  std::vector<Key> heap_;
  std::uint32_t heap_live_ = 0;
  /// Lanes, indexed by queue id (lane 0 is the arrival lane), and the
  /// minimum key over their heads (kNoEntry when every lane is empty) with
  /// its lane.
  std::vector<Lane> lanes_;
  Key lane_top_ = kNoEntry;
  std::uint32_t lane_top_id_ = kNullIndex;
  obs::TraceRecorder* recorder_ = nullptr;
};

}  // namespace eas::sim
