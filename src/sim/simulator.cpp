#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>

namespace eas::sim {
namespace {

/// Heap order for the std heap algorithms, which keep the *largest* element
/// on top: "largest" here is the key that fires first.
constexpr auto kFiresLater = [](const auto& a, const auto& b) {
  return b.fires_before(a);
};

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
    free_head_ = meta_[s].link;
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

void Simulator::consume_slot(std::uint32_t s) {
  // Invoke *in place* — chunked callback storage is address-stable, so the
  // callable never moves even if it schedules events that grow the pool.
  // Its slot joins the free list only after consume() has destroyed it
  // (guarded, so a throwing callback cannot leak the slot); until then the
  // free list cannot hand the slot's storage to a new event.
  struct FreeGuard {
    Simulator* self;
    std::uint32_t s;
    ~FreeGuard() { self->release_slot(s); }
  } guard{this, s};
  fn_at(s).consume();
}

// ---------------------------------------------------------------------------
// Queues. The heap and the lanes hold the same keys under one rule: cancel
// recycles the slot at once and leaves the key behind, stale, for its queue
// to drop — the heap pops stale tops and rebuilds once stale keys outnumber
// live ones, a lane skips stale heads and compacts. So every queue's top is
// live and holds O(live) keys, and arm, fire and cancel stay amortized
// O(log heap) or O(1).

Simulator::LaneId Simulator::delay_lane(SimTime delay) {
  const std::optional<LaneId> lane = try_delay_lane(delay);
  EAS_CHECK_MSG(lane.has_value(), "too many delay lanes");
  return *lane;
}

std::optional<Simulator::LaneId> Simulator::try_delay_lane(SimTime delay) {
  EAS_REQUIRE_MSG(std::isfinite(delay) && delay >= 0.0,
                  "lane delay must be finite and non-negative: " << delay);
  delay += 0.0;  // -0.0 and +0.0 are one delay
  for (LaneId i = kArrivalLane + 1; i < lanes_.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(lanes_[i].delay) ==
        std::bit_cast<std::uint64_t>(delay)) {
      return i;
    }
  }
  if (lanes_.size() == kMaxLanes) return std::nullopt;
  lanes_.push_back(Lane{delay, {}, 0, 0});
  return static_cast<LaneId>(lanes_.size() - 1);
}

EventHandle Simulator::enqueue(std::uint32_t q, SimTime when, std::uint32_t s) {
  std::uint64_t seq = 0;
  if (q != kArrivalLane) {
    seq = next_seq_++;
    EAS_CHECK_MSG(seq < kMaxSeq, "event sequence counter exhausted");
  }
  const Key k{time_to_bits(when), (seq << kSlotBits) | s, meta_[s].gen};
  meta_[s].link = q;
  if (q == kHeap) {
    heap_.push_back(k);
    std::push_heap(heap_.begin(), heap_.end(), kFiresLater);
    ++heap_live_;
  } else {
    // Amortized growth only: compact_lane bounds the lane by its live
    // count, so a warm lane pushes into capacity it already has.
    Lane& l = lanes_[q];
    l.keys.push_back(k);
    ++l.live;
    // The new key is the lane's last; it is the lane's head only if the
    // lane was empty, and then it can only lower the minimum over heads.
    if (k.fires_before(lane_top_)) {
      lane_top_ = k;
      lane_top_id_ = q;
    }
  }
  return EventHandle{s, k.gen};
}

void Simulator::settle_heap() {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), kFiresLater);
    heap_.pop_back();
  }
  // The rebuild costs O(heap) and is paid for by the cancels that made
  // more than half of it stale, so the heap holds at most 2x its live keys.
  if (heap_.size() > 2 * std::size_t{heap_live_}) {
    std::erase_if(heap_, [this](const Key& k) { return stale(k); });
    std::make_heap(heap_.begin(), heap_.end(), kFiresLater);
  }
}

void Simulator::compact_lane(Lane& l) {
  const auto size = static_cast<std::uint32_t>(l.keys.size());
  std::uint32_t head = l.head;
  while (head != size && stale(l.keys[head])) ++head;
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
  // stale keys or the prefix, so a lane holds at most 4x its live keys.
  if (rest - l.live > l.live || head > rest) {
    // Branchless: whether a key is stale is a coin flip to the predictor,
    // so every key is copied and only live ones advance the write cursor.
    Key* keys = l.keys.data();
    std::uint32_t w = 0;
    for (std::uint32_t i = head; i != size; ++i) {
      const Key k = keys[i];
      keys[w] = k;
      w += stale(k) ? 0u : 1u;
    }
    l.keys.resize(w);
    l.head = 0;
  }
}

void Simulator::update_lane_top() {
  lane_top_ = kNoEntry;
  lane_top_id_ = kNullIndex;
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    const Lane& l = lanes_[i];
    if (l.head == l.keys.size()) continue;
    const Key& k = l.keys[l.head];
    if (k.fires_before(lane_top_)) {
      lane_top_ = k;
      lane_top_id_ = i;
    }
  }
}

// ---------------------------------------------------------------------------
// Public API

bool Simulator::cancel(EventHandle h) {
  if (!pending(h)) return false;  // null, fired or cancelled (stale)
  const std::uint32_t s = h.slot_;
  const std::uint32_t q = meta_[s].link;
  fn_at(s).reset();  // destroy the un-fired callback
  ++meta_[s].gen;    // odd (alive) -> even (free): the key is now stale
  release_slot(s);
  if (q == kHeap) {
    --heap_live_;
    settle_heap();
  } else {
    Lane& l = lanes_[q];
    --l.live;
    compact_lane(l);
    // lane_top_ is a live head: only cancelling it can change the minimum.
    if (lane_top_.slot() == s) update_lane_top();
  }
  return true;
}

bool Simulator::fire_next(std::uint64_t until_bits) {
  // Heap and delay-lane keys share one sequence counter and arrivals take
  // sequence 0, so no two pending keys tie: this is the order one queue
  // holding every event would pop.
  const bool from_heap =
      !heap_.empty() && heap_.front().fires_before(lane_top_);
  const Key top = from_heap ? heap_.front() : lane_top_;
  if (top.time_bits > until_bits) return false;  // kNoEntry never fires
  EAS_ASSERT_MSG(top.time() >= now_, "event would move the clock backwards: "
                                         << top.time() << " < " << now_);
  now_ = top.time();
  ++fired_;
  const std::uint32_t s = top.slot();
  // Detach the slot before invoking — bump the generation so the callback
  // sees its own handle as stale if it tries to cancel itself.
  ++meta_[s].gen;
  if (from_heap) {
    std::pop_heap(heap_.begin(), heap_.end(), kFiresLater);
    heap_.pop_back();
    --heap_live_;
    settle_heap();
  } else {
    Lane& l = lanes_[lane_top_id_];
    ++l.head;
    --l.live;
    compact_lane(l);
    update_lane_top();
  }
  consume_slot(s);
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
