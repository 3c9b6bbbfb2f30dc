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
//  * events live in a slot pool (free-list recycled, generation-counted) —
//    no per-event heap allocation, no hash map from id to callback;
//  * callbacks are sim::InlineCallback (48-byte small-buffer optimization),
//    so scheduling a typical capture allocates nothing;
//  * the ready queue is an indexed 8-ary min-heap: each slot knows its heap
//    position, so cancel() removes the entry in place in O(log n) — no
//    tombstones, and next_event_time() is genuinely const;
//  * new events are appended to the heap array as an unordered staged
//    suffix and folded in only when something needs to pop or remove —
//    burst scheduling (batch schedulers, event bursts) pays one O(n) Floyd
//    heapify instead of n sift-ups. Order is unaffected: every pop still
//    follows the unique (time, seq) total order;
//  * trace replay goes through the arrival lane (schedule_arrival): one
//    pending arrival held beside the heap, re-armed by its own callback, so
//    the heap holds O(disks + in-flight) events instead of one per trace
//    record. The lane fires before any heap or delay-lane event at equal
//    time.
//  * fixed-delay timers go through delay lanes (schedule_on): a lane holds
//    events armed at now() + one fixed delay, so arming order is firing
//    order and the lane is a FIFO of small keys beside the heap. Arm and
//    cancel are O(1); the heap keeps only events whose delays vary.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
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

  Simulator() = default;
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
    const std::uint32_t s = fill_slot(std::forward<F>(fn));
    push_alive_slot(when, s);
    return EventHandle{s, meta_[s].gen};
  }

  /// Schedules `fn` after a non-negative delay.
  template <typename F>
  EventHandle schedule_in(SimTime delay, F&& fn) {
    EAS_REQUIRE_MSG(delay >= 0.0, "negative delay " << delay);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Identifies a delay lane; see delay_lane().
  using LaneId = std::uint32_t;

  /// Returns the lane for events armed exactly `delay` (>= 0) after now().
  /// Lanes are deduplicated by the bits of the delay, so owners that share
  /// a delay share a lane; an owner resolves its lanes once at set-up and
  /// keeps the ids, which are valid for this simulator only. At most
  /// kMaxLanes distinct delays.
  LaneId delay_lane(SimTime delay);

  /// Schedules `fn` on `lane`, i.e. at now() + the lane's delay — the same
  /// time, and the same next sequence number, that schedule_in(delay, fn)
  /// would give it, so the firing order is exactly schedule_in's. The
  /// returned handle works with cancel() and pending() like any other;
  /// cancelling a lane event is O(1).
  template <typename F>
  EventHandle schedule_on(LaneId lane, F&& fn) {
    EAS_REQUIRE_MSG(lane < lanes_.size(), "unknown delay lane " << lane);
    const SimTime when = now_ + lanes_[lane].delay;
    EAS_REQUIRE_MSG(std::isfinite(when), "event time must be finite");
    const std::uint32_t s = fill_slot(std::forward<F>(fn));
    push_lane_slot(lane, when, s);
    return EventHandle{s, meta_[s].gen};
  }

  /// Arms the arrival lane: `fn` fires at absolute time `when` (>= now()).
  /// The lane holds at most one pending event, stored beside the heap rather
  /// than in it, and a trace replay re-arms it from inside its own callback
  /// for the next record. At equal time the lane fires before every heap
  /// and delay-lane event — the order the replay would get by pre-scheduling
  /// one event per record up front, whose sequence numbers would all precede
  /// anything scheduled later. The lane event cannot be cancelled.
  template <typename F>
  void schedule_arrival(SimTime when, F&& fn) {
    EAS_REQUIRE_MSG(std::isfinite(when), "arrival time must be finite");
    EAS_REQUIRE_MSG(when >= now_, "cannot schedule an arrival in the past: when="
                                      << when << " now=" << now_);
    EAS_REQUIRE_MSG(arrival_bits_ == kNoPendingBits,
                    "arrival lane already holds a pending event");
    if constexpr (requires { static_cast<bool>(fn); }) {
      EAS_REQUIRE_MSG(static_cast<bool>(fn), "null arrival callback");
    }
    Callback& cb = arrival_[arrival_slot_];
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      cb = std::forward<F>(fn);
    } else {
      cb.emplace(std::forward<F>(fn));
    }
    arrival_bits_ = time_to_bits(when);
  }

  /// Cancels a pending event and recycles its slot. A heap event's entry is
  /// removed in place in O(log n); a lane event is O(1) — its key stays in
  /// the lane, stale, until the lane skips or compacts it. Returns true if
  /// the event was still pending (i.e. this call prevented it from firing).
  /// Safe to call with null or already-fired handles.
  bool cancel(EventHandle h);

  /// True if the event is scheduled and not yet fired/cancelled.
  bool pending(EventHandle h) const;

  /// Number of events waiting to fire, the arrival lane's and every delay
  /// lane's included.
  std::size_t pending_count() const {
    std::size_t n = live() + (arrival_bits_ != kNoPendingBits ? 1u : 0u);
    for (const DelayLane& l : lanes_) n += l.live;
    return n;
  }

  /// Physical size of the ready queue (heap-ordered prefix plus staged
  /// suffix). Equals pending_count() minus the arrival and delay lanes'
  /// events: heap cancellation removes entries in place, so there is no
  /// tombstone growth for it to diverge by. Exposed so tests can pin that
  /// property down.
  std::size_t queue_depth() const { return live(); }

  /// Keys physically held by the delay lanes, stale ones included. Stays
  /// within a constant factor of the live lane events (see compact_lane);
  /// exposed so tests can pin that bound.
  std::size_t lane_key_count() const {
    std::size_t n = 0;
    for (const DelayLane& l : lanes_) n += l.keys.size();
    return n;
  }

  /// Runs until the queue drains. Returns the number of events fired.
  std::uint64_t run();

  /// Runs events with time <= `until`, then advances the clock to `until`
  /// (even if idle). Returns the number of events fired.
  std::uint64_t run_until(SimTime until);

  /// Fires exactly one event if any is pending. Returns false on empty queue.
  bool step();

  /// Time of the next pending event, or kTimeInfinity. Const in letter and
  /// spirit: the tombstone-free heap means there is nothing to lazily clean,
  /// the staged suffix tracks its minimum time incrementally, so even staged
  /// events are answered without a flush, and every delay lane's head key is
  /// live, so lane_top_ is exact.
  SimTime next_event_time() const {
    std::uint64_t bits = staged_min_bits_ < arrival_bits_ ? staged_min_bits_
                                                           : arrival_bits_;
    if (heaped_ != 0 && ent(0).time_bits < bits) bits = ent(0).time_bits;
    if (lane_top_.time_bits < bits) bits = lane_top_.time_bits;
    return bits == kNoPendingBits ? kTimeInfinity
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

  /// Heap entries pack (seq, slot) into one 64-bit word: the low kSlotBits
  /// hold the slot index, the high bits the schedule sequence number. Both
  /// limits fail loudly (EAS_CHECK) rather than wrap: 2^24 simultaneous
  /// events and 2^40 total schedules are orders of magnitude beyond any
  /// sweep in this repo.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  /// Per-slot bookkeeping. `gen` is odd while the slot is alive and even
  /// while it is free; handles are only ever minted with odd generations, so
  /// a handle matches `gen` iff it names the slot's current live
  /// incarnation. `pos_link` is overloaded on that state — a slot is in the
  /// heap, in a delay lane or on the free list, exactly one — holding the
  /// slot's heap position or kLaneTag | lane id while alive, and the next
  /// free slot while free. (The generation check always runs first, so a
  /// stale reading of the other meaning is unreachable; heap positions stay
  /// below kMaxSlots, so they never carry the tag bit.)
  ///
  /// Kept separate from the slot's callback on purpose: every sift placement
  /// writes pos_link, so the metadata array is the kernel's hottest random-
  /// access surface — at 8 bytes per slot it stays cache-resident long after
  /// an array of 72-byte (callback + metadata) slots would thrash.
  struct SlotMeta {
    std::uint32_t gen = 0;
    std::uint32_t pos_link = kNullIndex;
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

  /// Heap entry: the full ordering key travels *with* the entry so sift
  /// comparisons read contiguous heap memory and never chase the slot pool;
  /// the pool is only touched to mirror positions into pos_link. Packing
  /// (seq, slot) into one word makes the entry 16 bytes, so an 8-ary node's
  /// children fill exactly two aligned cache lines — and storing the time as
  /// ordered bits makes the whole (time, seq) ordering one branchless
  /// 128-bit integer compare, which matters because heap comparisons are the
  /// kernel's least predictable branches.
  struct HeapEntry {
    std::uint64_t time_bits;  // time_to_bits(when); see above
    std::uint64_t seq_slot;   // (seq << kSlotBits) | slot

    SimTime time() const {  // simulated clock accessor, not libc time()
      return std::bit_cast<SimTime>(time_bits);
    }
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot) & (kMaxSlots - 1);
    }
    /// Lexicographic (time, seq) as a single integer: seq occupies the high
    /// bits of seq_slot and is unique per entry, so the low slot bits never
    /// decide a comparison.
    unsigned __int128 key() const {
      return (static_cast<unsigned __int128>(time_bits) << 64) | seq_slot;
    }
    bool fires_before(const HeapEntry& o) const { return key() < o.key(); }
  };
  static_assert(sizeof(HeapEntry) == 16);

  /// Callback storage is chunked so slot addresses are *stable*: growing the
  /// pool never moves a live callback. That stability is what lets fire_top
  /// invoke the callable in place (zero moves on the fire path) even when
  /// the callback itself schedules new events and grows the pool under its
  /// own feet. 1024 slots per chunk = 64 KiB allocations.
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

  /// Sentinel for staged_min_bits_ and arrival_bits_: larger (as ordered
  /// time bits) than any finite event time, so an empty staged suffix or
  /// lane never wins the next-event compare.
  static constexpr std::uint64_t kNoPendingBits = ~std::uint64_t{0};
  /// The same sentinel as a full (time, seq) key, for an empty heap or an
  /// empty set of delay lanes: every real entry fires before it.
  static constexpr HeapEntry kNoEntry{kNoPendingBits, ~std::uint64_t{0}};

  /// Delay lanes (schedule_on). Events on one lane are armed at now() + a
  /// fixed delay; the clock never runs backwards and IEEE addition rounds
  /// monotonically, so arming order is (time, seq) order and each lane is a
  /// FIFO — no sift, no per-lane heap. A key remembers its slot's
  /// generation: cancel() only recycles the slot, and the key left behind
  /// is recognised as stale by the mismatch.
  static constexpr std::uint32_t kLaneTag = 1u << 31;
  static constexpr std::uint32_t kMaxLanes = 256;
  struct LaneKey {
    HeapEntry key;
    std::uint32_t gen;
  };
  struct DelayLane {
    SimTime delay;
    /// Keys [head, keys.size()) in (time, seq) order; keys[head] is always
    /// live (stale heads are skipped eagerly) and [0, head) is consumed.
    /// compact_lane keeps stale keys at most as many as live ones and the
    /// consumed prefix at most as long as the rest, so keys.size() stays
    /// within 4x the live count: lane memory is O(live events).
    std::vector<LaneKey> keys;
    std::uint32_t head = 0;
    std::uint32_t live = 0;
  };

  /// The heap array is stored with kHeapPad dummy entries in front and
  /// 64-byte-aligned storage, so logical position p lives at heap_[p + 3].
  /// Children of p (logical 8p+1..8p+8) then land on array indices
  /// 8p+4..8p+11 — a multiple of four, i.e. two *aligned* cache lines.
  /// Without the pad every child tournament starts 16 bytes into a line and
  /// straddles three lines, an extra line touched per sift level.
  static constexpr std::uint32_t kHeapPad = 3;

  /// Minimal allocator giving the heap vector cache-line-aligned storage
  /// (vectors only guarantee max_align_t = 16 bytes here).
  template <typename T>
  struct CacheAlignedAllocator {
    using value_type = T;
    CacheAlignedAllocator() = default;
    template <typename U>
    CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}  // NOLINT
    T* allocate(std::size_t n) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{64}));
    }
    void deallocate(T* p, std::size_t n) {
      ::operator delete(p, n * sizeof(T), std::align_val_t{64});
    }
    bool operator==(const CacheAlignedAllocator&) const { return true; }
    bool operator!=(const CacheAlignedAllocator&) const { return false; }
  };

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
  /// Assigns the next sequence number to alive slot `s` and appends its key
  /// to `lane` at time `when`. Out-of-line tail of schedule_on.
  void push_lane_slot(LaneId lane, SimTime when, std::uint32_t s);
  /// Invokes slot `s`'s callback in place and then returns the slot to the
  /// free list. The caller has already bumped the slot's generation.
  void consume_slot(std::uint32_t s);
  /// Assigns the next sequence number to alive slot `s` and stages it for
  /// the ready heap at time `when`. Out-of-line tail of schedule_at.
  void push_alive_slot(SimTime when, std::uint32_t s);
  /// Logical heap access: position p lives at heap_[p + kHeapPad].
  HeapEntry& ent(std::uint32_t pos) { return heap_[pos + kHeapPad]; }
  const HeapEntry& ent(std::uint32_t pos) const {
    return heap_[pos + kHeapPad];
  }
  /// Number of live entries (heap-ordered prefix + staged suffix). The
  /// vector is either untouched (size 0) or padded (size >= kHeapPad).
  std::uint32_t live() const {
    const std::size_t s = heap_.size();
    return s < kHeapPad ? 0u : static_cast<std::uint32_t>(s - kHeapPad);
  }
  /// True while the heap array carries staged (not yet heap-ordered)
  /// entries past the ordered prefix.
  bool has_staged() const { return heaped_ != live(); }
  /// Folds the staged suffix into the heap-ordered prefix (small suffixes
  /// sift in one by one, large ones Floyd-rebuild in place). Must run
  /// before any pop or removal.
  void fold_staged();
  void heap_remove(std::uint32_t pos);
  void sift_up(std::uint32_t pos, HeapEntry e);
  void sift_down(std::uint32_t pos, HeapEntry e);
  std::uint32_t sink_hole(std::uint32_t pos);
  /// Pops the minimum and fires it (clock advance + callback invocation).
  void fire_top();
  /// Fires the arrival lane's event and leaves the lane free to re-arm.
  void fire_arrival();
  /// Pops lane_top_'s key from its delay lane and fires it.
  void fire_lane_top();
  /// O(1) cancel of live lane event `s`, whose pos_link names its lane.
  void cancel_lane_slot(std::uint32_t s);
  /// Skips stale keys at the lane's head, then compacts when stale keys
  /// outnumber live ones or the consumed prefix outgrows the rest.
  void compact_lane(DelayLane& l);
  /// Recomputes lane_top_ from every lane's head.
  void update_lane_top();
  /// Fires the next event if its time is at most `until_bits` (ordered time
  /// bits): the minimum by (time, seq) of the heap top and the delay lanes'
  /// heads, or the arrival lane's on a time tie with that minimum. Returns
  /// false otherwise, including when nothing is pending.
  bool fire_next(std::uint64_t until_bits);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  /// Slot pool, split hot/cold: fn_at(s) is slot s's callback (touched once
  /// per schedule and once per fire), meta_[s] its bookkeeping (touched on
  /// every sift placement). fns_ holds raw storage for kChunkSize callbacks
  /// per chunk; slots [0, meta_.size()) hold constructed Callback objects.
  std::vector<std::unique_ptr<std::byte[]>> fns_;
  std::vector<SlotMeta> meta_;
  std::uint32_t free_head_ = kNullIndex;
  /// Indexed 8-ary min-heap ordered by (time, seq). Arity 8 cuts the tree
  /// to a third of binary depth — the sift walk is a serial chain of
  /// level-to-level dependencies, so depth is what a removal actually
  /// waits on, while the 7-compare child tournament at each level is
  /// pipeline-parallel (depth 3). With the kHeapPad offset a node's eight
  /// 16-byte children fill two aligned cache lines. The vector holds
  /// kHeapPad dummies in front (installed on first use); all positions in
  /// the code are logical, translated by ent()/live().
  std::vector<HeapEntry, CacheAlignedAllocator<HeapEntry>> heap_;
  /// Logical positions [0, heaped_) are heap-ordered; [heaped_, live()) is
  /// the staged suffix that schedule_at appends to in O(1). staged_min_bits_
  /// is the minimum staged time (as ordered bits) so next_event_time() stays
  /// O(1) and const even with staged entries.
  std::uint32_t heaped_ = 0;
  std::uint64_t staged_min_bits_ = kNoPendingBits;
  /// Arrival lane: the pending arrival's time as ordered bits
  /// (kNoPendingBits when the lane is free) and its callback. The callback
  /// is double-buffered: fire_arrival flips arrival_slot_ before invoking,
  /// so a callback that re-arms the lane constructs the next arrival in the
  /// other buffer instead of over the callable still running.
  std::uint64_t arrival_bits_ = kNoPendingBits;
  std::uint32_t arrival_slot_ = 0;
  Callback arrival_[2];
  /// Delay lanes, indexed by LaneId, and the minimum (time, seq) key over
  /// their heads (kNoEntry when every lane is empty) with its lane.
  std::vector<DelayLane> lanes_;
  HeapEntry lane_top_ = kNoEntry;
  std::uint32_t lane_top_id_ = kNullIndex;
  obs::TraceRecorder* recorder_ = nullptr;
};

}  // namespace eas::sim
