#include "sim/simulator.hpp"

#include <cmath>
#include <utility>

namespace eas::sim {
namespace {

/// Hints the prefetcher at a line we will touch after a long dependent load
/// chain (the sift loop), overlapping the miss with that work. Purely a
/// performance hint — no observable effect, so determinism is untouched.
inline void prefetch_for_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1);
#else
  (void)p;
#endif
}

}  // namespace

// Raw chunk storage relies on plain new[] alignment being enough for the
// callback's small-buffer alignment.
static_assert(alignof(Simulator::Callback) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

// ---------------------------------------------------------------------------
// Slot pool

Simulator::~Simulator() {
  // Chunks are raw storage; every slot ever minted holds a constructed
  // Callback (empty once fired/cancelled) that must be destroyed by hand.
  for (std::uint32_t s = 0; s < meta_.size(); ++s) fn_at(s).~Callback();
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNullIndex) {
    const std::uint32_t s = free_head_;
    free_head_ = meta_[s].pos_link;
    ++meta_[s].gen;  // even (free) -> odd (alive)
    return s;
  }
  EAS_CHECK_MSG(meta_.size() < kMaxSlots, "event slot pool exhausted");
  const auto s = static_cast<std::uint32_t>(meta_.size());
  if ((s >> kChunkShift) == fns_.size()) {
    // Plain new[] (not make_unique) on purpose: default-initialized bytes,
    // so the 64 KiB chunk is mapped but never written here.
    fns_.emplace_back(new std::byte[sizeof(Callback) * kChunkSize]);  // det-ok: amortized 64 KiB chunk growth; the steady state recycles slots
  }
  meta_.emplace_back();
  // Default-init, not value-init: Callback{} would zero the whole 64-byte
  // slot (storage included); the default constructor writes only ops_.
  ::new (static_cast<void*>(slot_storage(s))) Callback;
  ++meta_[s].gen;  // 0 -> 1
  return s;
}

// ---------------------------------------------------------------------------
// Indexed 8-ary min-heap. Entries carry their (time, seq) key; each slot
// mirrors its position in pos_link so cancel() removes an arbitrary entry in
// O(log n). The sift helpers take the entry being placed by value: it is
// written exactly once, into its final hole, instead of swapped level by
// level.

void Simulator::sift_up(std::uint32_t pos, HeapEntry e) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 8;
    const HeapEntry p = ent(parent);
    if (!e.fires_before(p)) break;
    ent(pos) = p;
    meta_[p.slot()].pos_link = pos;
    pos = parent;
  }
  ent(pos) = e;
  meta_[e.slot()].pos_link = pos;
}

/// Sinks the hole at `pos` along the min-child path to a leaf, moving the
/// winning child up one level each step, and returns the hole's final
/// position. Bottom-up removal: the entry that will fill the hole comes from
/// the heap's bottom, so it almost always belongs at a leaf anyway — sinking
/// the hole unconditionally skips the compare-against-replacement branch a
/// classic sift-down pays at every level, and the follow-up sift_up usually
/// terminates after one comparison.
std::uint32_t Simulator::sink_hole(std::uint32_t pos) {
  const std::uint32_t n = live();
  while (true) {
    const std::uint64_t first = std::uint64_t{pos} * 8 + 1;
    if (first >= n) return pos;
    std::uint32_t best;
    if (first + 8 <= n) {
      // Full node: pick the minimum child by pairwise tournament (depth 3:
      // four quarter-finals, two semis, one final — the independent rounds
      // run in parallel in the pipeline). With the branchless 128-bit key
      // compare the ternaries lower to conditional moves — which child wins
      // is data-dependent and unpredictable, so this is where branch misses
      // would otherwise pile up.
      const auto c = static_cast<std::uint32_t>(first);
      const std::uint32_t b01 = ent(c + 1).fires_before(ent(c)) ? c + 1 : c;
      const std::uint32_t b23 =
          ent(c + 3).fires_before(ent(c + 2)) ? c + 3 : c + 2;
      const std::uint32_t b45 =
          ent(c + 5).fires_before(ent(c + 4)) ? c + 5 : c + 4;
      const std::uint32_t b67 =
          ent(c + 7).fires_before(ent(c + 6)) ? c + 7 : c + 6;
      const std::uint32_t l = ent(b23).fires_before(ent(b01)) ? b23 : b01;
      const std::uint32_t r = ent(b67).fires_before(ent(b45)) ? b67 : b45;
      best = ent(r).fires_before(ent(l)) ? r : l;
    } else {
      best = static_cast<std::uint32_t>(first);
      for (std::uint32_t c = best + 1; c < n; ++c) {
        best = ent(c).fires_before(ent(best)) ? c : best;
      }
    }
    const HeapEntry w = ent(best);
    ent(pos) = w;
    meta_[w.slot()].pos_link = pos;
    pos = best;
  }
}

/// Classic bounded sift-down (used by the Floyd rebuild): move the min child
/// up while it fires before `e`, then place `e`. Same child tournament as
/// sink_hole, plus the compare-against-entry exit that Floyd needs.
void Simulator::sift_down(std::uint32_t pos, HeapEntry e) {
  const std::uint32_t n = live();
  while (true) {
    const std::uint64_t first = std::uint64_t{pos} * 8 + 1;
    if (first >= n) break;
    std::uint32_t best;
    if (first + 8 <= n) {
      const auto c = static_cast<std::uint32_t>(first);
      const std::uint32_t b01 = ent(c + 1).fires_before(ent(c)) ? c + 1 : c;
      const std::uint32_t b23 =
          ent(c + 3).fires_before(ent(c + 2)) ? c + 3 : c + 2;
      const std::uint32_t b45 =
          ent(c + 5).fires_before(ent(c + 4)) ? c + 5 : c + 4;
      const std::uint32_t b67 =
          ent(c + 7).fires_before(ent(c + 6)) ? c + 7 : c + 6;
      const std::uint32_t l = ent(b23).fires_before(ent(b01)) ? b23 : b01;
      const std::uint32_t r = ent(b67).fires_before(ent(b45)) ? b67 : b45;
      best = ent(r).fires_before(ent(l)) ? r : l;
    } else {
      best = static_cast<std::uint32_t>(first);
      for (std::uint32_t c = best + 1; c < n; ++c) {
        best = ent(c).fires_before(ent(best)) ? c : best;
      }
    }
    const HeapEntry w = ent(best);
    if (!w.fires_before(e)) break;
    ent(pos) = w;
    meta_[w.slot()].pos_link = pos;
    pos = best;
  }
  ent(pos) = e;
  meta_[e.slot()].pos_link = pos;
}

void Simulator::heap_remove(std::uint32_t pos) {
  EAS_ASSERT(pos < live());
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  heaped_ = live();  // callers fold first
  if (pos == heaped_) return;  // removed the last entry
  // Sink the hole to a leaf, then sift the bottom entry up from there; the
  // sift_up also covers the case where `moved` belongs above `pos`.
  sift_up(sink_hole(pos), moved);
}

// ---------------------------------------------------------------------------
// Delay lanes. Each lane is a FIFO of (time, seq|slot, gen) keys; a cancel
// recycles the slot at once and leaves its key behind, stale, for
// compact_lane to drop. lane_top_ caches the minimum head so fire_next and
// next_event_time compare one key, not one per lane.

Simulator::LaneId Simulator::delay_lane(SimTime delay) {
  EAS_REQUIRE_MSG(delay >= 0.0, "negative lane delay " << delay);
  delay += 0.0;  // -0.0 and +0.0 are one delay
  for (LaneId i = 0; i < lanes_.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(lanes_[i].delay) ==
        std::bit_cast<std::uint64_t>(delay)) {
      return i;
    }
  }
  EAS_CHECK_MSG(lanes_.size() < kMaxLanes, "too many delay lanes");
  lanes_.push_back(DelayLane{delay, {}, 0, 0});
  return static_cast<LaneId>(lanes_.size() - 1);
}

void Simulator::push_lane_slot(LaneId lane, SimTime when, std::uint32_t s) {
  const std::uint64_t seq = next_seq_++;
  EAS_CHECK_MSG(seq < kMaxSeq, "event sequence counter exhausted");
  const HeapEntry e{time_to_bits(when), (seq << kSlotBits) | s};
  DelayLane& l = lanes_[lane];
  // Amortized growth only: compact_lane bounds the lane by its live count,
  // so a warm lane pushes into capacity it already has.
  l.keys.push_back(LaneKey{e, meta_[s].gen});
  ++l.live;
  meta_[s].pos_link = kLaneTag | lane;
  // The new key is the lane's last; it is the lane's head only if the lane
  // was empty, and then it can only lower the minimum over heads.
  if (e.fires_before(lane_top_)) {
    lane_top_ = e;
    lane_top_id_ = lane;
  }
}

void Simulator::compact_lane(DelayLane& l) {
  const auto size = static_cast<std::uint32_t>(l.keys.size());
  std::uint32_t head = l.head;
  while (head != size &&
         l.keys[head].gen != meta_[l.keys[head].key.slot()].gen) {
    ++head;
  }
  const std::uint32_t rest = size - head;
  if (rest == 0) {
    l.keys.clear();
    l.head = 0;
    return;
  }
  l.head = head;
  // Stale keys outnumber live ones, or the consumed prefix is longer than
  // what is left: copy the live keys to the front. Either way the copy
  // costs O(rest) and is paid for by the cancels or pops that made the
  // stale keys or the prefix, so arm, fire and cancel stay amortized O(1).
  if (rest - l.live > l.live || head > rest) {
    // Branchless: whether a key is stale is a coin flip to the predictor,
    // so every key is copied and only live ones advance the write cursor.
    LaneKey* keys = l.keys.data();
    std::uint32_t w = 0;
    for (std::uint32_t i = head; i != size; ++i) {
      const LaneKey k = keys[i];
      keys[w] = k;
      w += k.gen == meta_[k.key.slot()].gen ? 1u : 0u;
    }
    l.keys.resize(w);
    l.head = 0;
  }
}

void Simulator::update_lane_top() {
  lane_top_ = kNoEntry;
  lane_top_id_ = kNullIndex;
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    const DelayLane& l = lanes_[i];
    if (l.head == l.keys.size()) continue;
    const HeapEntry& e = l.keys[l.head].key;
    if (e.fires_before(lane_top_)) {
      lane_top_ = e;
      lane_top_id_ = i;
    }
  }
}

void Simulator::cancel_lane_slot(std::uint32_t s) {
  SlotMeta& m = meta_[s];
  const std::uint32_t id = m.pos_link & ~kLaneTag;
  DelayLane& l = lanes_[id];
  const bool was_head = l.keys[l.head].key.slot() == s;  // the head is live
  fn_at(s).reset();  // destroy the un-fired callback
  ++m.gen;           // odd (alive) -> even (free): the key is now stale
  m.pos_link = free_head_;
  free_head_ = s;
  --l.live;
  compact_lane(l);
  // Only a lane whose head moved can change the minimum, and only if it
  // held it.
  if (was_head && id == lane_top_id_) update_lane_top();
}

void Simulator::fire_lane_top() {
  DelayLane& l = lanes_[lane_top_id_];
  const HeapEntry top = lane_top_;
  EAS_ASSERT_MSG(top.time() >= now_, "event would move the clock backwards: "
                                         << top.time() << " < " << now_);
  now_ = top.time();
  ++fired_;
  const std::uint32_t s = top.slot();
  ++meta_[s].gen;  // detach before invoking, as fire_top does
  ++l.head;
  --l.live;
  compact_lane(l);
  update_lane_top();
  consume_slot(s);
}

// ---------------------------------------------------------------------------
// Public API

void Simulator::push_alive_slot(SimTime when, std::uint32_t s) {
  const std::uint64_t seq = next_seq_++;
  EAS_CHECK_MSG(seq < kMaxSeq, "event sequence counter exhausted");
  const std::uint64_t bits = time_to_bits(when);
  // Install the alignment pad on first use (see kHeapPad).
  if (heap_.empty()) heap_.resize(kHeapPad);
  const std::uint32_t i = live();
  heap_.push_back(HeapEntry{bits, (seq << kSlotBits) | s});
  meta_[s].pos_link = i;  // stays correct until a fold moves the entry
  if (bits < staged_min_bits_) staged_min_bits_ = bits;
}

void Simulator::fold_staged() {
  // Small staged suffixes sift in one at a time (processing in index order
  // keeps each sift_up's ancestor path inside the already-valid prefix).
  // Large ones (relative to the prefix) Floyd-rebuild the whole array in
  // place, O(heap + staged) — cheaper than staged * log(heap) sift-ups, and
  // when the suffix arrived in time order (trace replay) the rebuild is a
  // compare-only pass with no moves. The threshold only changes the heap's
  // internal layout, never the pop sequence: pops follow the unique
  // (time, seq) total order regardless of where entries sit.
  const std::uint32_t n = live();
  const std::uint32_t staged = n - heaped_;
  if (staged < 8 || staged < heaped_ / 8) {
    for (std::uint32_t i = heaped_; i < n; ++i) {
      sift_up(i, ent(i));
    }
  } else if (n >= 2) {
    // Floyd: sift every internal node down, deepest first.
    for (std::uint32_t i = (n - 2) / 8 + 1; i-- > 0;) {
      sift_down(i, ent(i));
    }
  }
  heaped_ = n;
  staged_min_bits_ = kNoPendingBits;
}

bool Simulator::cancel(EventHandle h) {
  if (!h.valid() || h.slot_ >= meta_.size()) return false;
  SlotMeta& m = meta_[h.slot_];
  if (m.gen != h.gen_) return false;  // already fired/cancelled (stale)
  if ((m.pos_link & kLaneTag) != 0) {
    cancel_lane_slot(h.slot_);
    return true;
  }
  // The target may sit in the staged suffix; fold first so heap_remove
  // operates on a complete heap (m.pos_link is current either way).
  if (has_staged()) fold_staged();
  Callback& cb = fn_at(h.slot_);
  prefetch_for_write(&cb);  // destroyed below, after the sift walk
  heap_remove(m.pos_link);
  // Release the slot in place. `m` stays valid — heap_remove rewrites
  // pos_link only for entries still in the heap, and this slot's entry is
  // the one that left it.
  cb.reset();  // destroy the un-fired callback
  ++m.gen;     // odd (alive) -> even (free): stale handles now mismatch
  m.pos_link = free_head_;
  free_head_ = h.slot_;
  return true;
}

bool Simulator::pending(EventHandle h) const {
  return h.valid() && h.slot_ < meta_.size() && meta_[h.slot_].gen == h.gen_;
}

void Simulator::fire_top() {
  const HeapEntry top = ent(0);
  // The clock is monotonic by construction (schedule_at rejects the past and
  // the heap pops in time order); a violation here means the queue ordering
  // itself is corrupt.
  EAS_ASSERT_MSG(top.time() >= now_, "event would move the clock backwards: "
                                         << top.time() << " < " << now_);
  now_ = top.time();
  ++fired_;
  const std::uint32_t s = top.slot();
  prefetch_for_write(&fn_at(s));  // consumed after the sift below
  // Detach the slot before invoking — bump the generation so the callback
  // sees its own handle as stale if it tries to cancel itself. pos_link goes
  // stale until consume_slot repoints it at the free list; with an even
  // generation nothing can read it in between.
  ++meta_[s].gen;
  // Root removal: sink the hole from the root, refill from the bottom.
  // Callers fold before popping, so the whole array is heap-ordered here;
  // events the callback schedules below stage past the new heaped_ mark.
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  heaped_ = live();
  if (heaped_ != 0) sift_up(sink_hole(0), moved);
  consume_slot(s);
}

void Simulator::consume_slot(std::uint32_t s) {
  // Invoke *in place* — chunked callback storage is address-stable, so the
  // callable never moves even if it schedules events that grow the pool.
  // Its slot joins the free list only after consume() has destroyed it
  // (guarded, so a throwing callback cannot leak the slot); until then the
  // free list cannot hand the slot's storage to a new event.
  struct FreeGuard {
    Simulator* self;
    std::uint32_t s;
    ~FreeGuard() {
      self->meta_[s].pos_link = self->free_head_;
      self->free_head_ = s;
    }
  } guard{this, s};
  fn_at(s).consume();
}

void Simulator::fire_arrival() {
  const SimTime t = std::bit_cast<SimTime>(arrival_bits_);
  // schedule_arrival rejects the past, and heap and delay-lane events only
  // fire ahead of the lane when strictly earlier, so the clock cannot have
  // passed it.
  EAS_ASSERT_MSG(t >= now_, "arrival would move the clock backwards: "
                                << t << " < " << now_);
  now_ = t;
  ++fired_;
  arrival_bits_ = kNoPendingBits;
  Callback& cb = arrival_[arrival_slot_];
  arrival_slot_ ^= 1u;  // a re-arm from inside cb fills the other buffer
  cb.consume();
}

bool Simulator::fire_next(std::uint64_t until_bits) {
  if (has_staged()) fold_staged();
  const HeapEntry heap_top = live() != 0 ? ent(0) : kNoEntry;
  // Heap and lane events share one sequence counter, so their (time, seq)
  // keys never tie: this is the order a single heap holding both would pop.
  const bool lane_wins = lane_top_.fires_before(heap_top);
  const std::uint64_t next_bits =
      lane_wins ? lane_top_.time_bits : heap_top.time_bits;
  // `<=`: the arrival lane wins a time tie against every other event.
  if (arrival_bits_ <= next_bits) {
    if (arrival_bits_ > until_bits) return false;
    fire_arrival();
  } else {
    if (next_bits > until_bits) return false;
    if (lane_wins) {
      fire_lane_top();
    } else {
      fire_top();
    }
  }
  return true;
}

bool Simulator::step() { return fire_next(time_to_bits(kTimeInfinity)); }

std::uint64_t Simulator::run() {
  const std::uint64_t all = time_to_bits(kTimeInfinity);
  std::uint64_t n = 0;
  while (fire_next(all)) ++n;
  return n;
}

std::uint64_t Simulator::run_until(SimTime until) {
  EAS_REQUIRE_MSG(until >= now_, "run_until target in the past");
  const std::uint64_t until_bits = time_to_bits(until);
  std::uint64_t n = 0;
  while (fire_next(until_bits)) ++n;
  now_ = until;
  return n;
}

}  // namespace eas::sim
