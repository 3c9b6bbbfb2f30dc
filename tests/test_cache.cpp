// Cache & destage tier tests: golden LRU replacement sequences, the
// write-back buffer lifecycle, seeded differentials of the dense LRU and
// write-back buffer against the naive models in reference_cache.hpp, and
// the power-aware destage path end to end (piggyback on an already-spinning
// disk, watermark/deadline force-destage, dirty-data redirect on disk death,
// and the cache-off bit-identity contract).
//
// This binary also links the counting operator new shim (alloc_counter.cpp)
// to pin the zero-allocation promises literally: cache lookups and
// miss-inserts, warm write-back cycles, and the tiers and online cells'
// per-request allocations at run level, and the online cell's bytes per
// request (one response double).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "alloc_counter.hpp"
#include "cache/block_cache.hpp"
#include "cache/cache.hpp"
#include "cache/write_back.hpp"
#include "core/basic_schedulers.hpp"
#include "core/cost_scheduler.hpp"
#include "paper_example.hpp"
#include "reference_cache.hpp"
#include "scripted_fleet.hpp"
#include "power/fixed_threshold.hpp"
#include "power/policy.hpp"
#include "runner/experiment.hpp"
#include "runner/registry.hpp"
#include "sim/simulator.hpp"
#include "storage/storage_system.hpp"
#include "trace/synthetic.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace eas::cache {
namespace {

// ----------------------------------------------------------------- config

TEST(CacheConfig, ValidateRejectsNonsense) {
  CacheConfig c;
  c.enabled = true;
  EXPECT_NO_THROW(c.validate());  // defaults are sane

  c.high_watermark = 1.5;
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.low_watermark = 0.9;  // above high (0.75)
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.max_destage_batch = 0;
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.dram_latency_seconds = -1.0;
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.destage_deadline_seconds = 0.0;
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.block_bytes = 0;
  EXPECT_THROW(c.validate(), InvariantError);

  // Disabled configs are never checked, however broken.
  c = {};
  c.high_watermark = -3.0;
  c.max_destage_batch = 0;
  EXPECT_NO_THROW(c.validate());
}

TEST(CacheConfig, ValidateRejectsNonFiniteDelaysAndPower) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  CacheConfig c;
  c.enabled = true;
  c.dram_latency_seconds = kInf;
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.destage_deadline_seconds = kInf;
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.memory_watts_per_gib = kInf;
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.dram_latency_seconds = std::nan("");
  EXPECT_THROW(c.validate(), InvariantError);
}

TEST(CacheConfig, ExperimentParamsRejectAnInfiniteDramLatency) {
  // Params built by hand skip the builder; validate() must still stop an
  // infinite DRAM latency before a run schedules its first cache hit.
  runner::ExperimentParams p =
      runner::ExperimentBuilder(runner::Workload::kCello).requests(100).build();
  p.cache.enabled = true;
  EXPECT_NO_THROW(p.validate());
  p.cache.dram_latency_seconds = std::numeric_limits<double>::infinity();
  EXPECT_THROW(p.validate(), InvariantError);
}

TEST(CacheConfig, DescribeNamesAnEnabledCacheExactly) {
  // describe() is the `params` field of every emitted row, so its cache
  // segment is output: pin it byte for byte.
  runner::ExperimentBuilder b(runner::Workload::kCello);
  b.requests(100);
  EXPECT_EQ(runner::describe(b.build()).find("cache["), std::string::npos);
  CacheConfig cc;
  cc.capacity_blocks = 1024;
  cc.dirty_capacity_blocks = 256;
  cc.memory_watts_per_gib = 0.5;
  const std::string d = runner::describe(b.cache(cc).build());
  const std::size_t at = d.find("cache[");
  ASSERT_NE(at, std::string::npos) << d;
  EXPECT_EQ(d.substr(at, d.find(']', at) + 1 - at),
            "cache[lru blocks=1024 dirty=256 mem_w_gib=0.5]");
}

TEST(CacheConfig, MemoryEnergyChargesBothHalvesOverTheHorizon) {
  CacheConfig c;
  c.capacity_blocks = 1024;        // 1024 * 1 MiB = 1 GiB
  c.dirty_capacity_blocks = 1024;  // another GiB
  c.block_bytes = 1024 * 1024;
  c.memory_watts_per_gib = 0.5;
  EXPECT_EQ(c.footprint_bytes(), 2ull * 1024 * 1024 * 1024);
  // 2 GiB * 0.5 W/GiB * 100 s = 100 J.
  EXPECT_DOUBLE_EQ(c.memory_energy_joules(100.0), 100.0);
}

// -------------------------------------------------------------------- LRU

TEST(LruCache, GoldenEvictionSequence) {
  LruBlockCache c(2, /*num_data=*/16);
  EXPECT_EQ(c.insert(1), kInvalidData);
  EXPECT_EQ(c.insert(2), kInvalidData);
  EXPECT_EQ(c.size(), 2u);
  // 1 is LRU; inserting 3 evicts it.
  EXPECT_EQ(c.insert(3), 1u);
  EXPECT_FALSE(c.contains(1));
  // Promote 2; now 3 is LRU and the next insert evicts it.
  EXPECT_TRUE(c.lookup(2));
  EXPECT_EQ(c.insert(4), 3u);
  EXPECT_TRUE(c.contains(2));
  EXPECT_TRUE(c.contains(4));
  // Re-inserting a resident block promotes without eviction.
  EXPECT_EQ(c.insert(2), kInvalidData);
  EXPECT_EQ(c.insert(5), 4u);  // 4 became LRU after 2's promotion
  // erase() frees a slot.
  EXPECT_TRUE(c.erase(2));
  EXPECT_FALSE(c.erase(2));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.insert(6), kInvalidData);
}

TEST(LruCache, ZeroCapacityDegeneratesCleanly) {
  LruBlockCache c(0, /*num_data=*/16);
  EXPECT_EQ(c.insert(1), kInvalidData);
  EXPECT_FALSE(c.lookup(1));
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.size(), 0u);
}

TEST(LruCache, IdsOutsideTheIndexAreNeverResidentAndCannotBeInserted) {
  LruBlockCache c(4, /*num_data=*/8);
  EXPECT_FALSE(c.contains(8));
  EXPECT_FALSE(c.lookup(kInvalidData));
  EXPECT_FALSE(c.erase(100));
  EXPECT_THROW(c.insert(8), InvariantError);
  EXPECT_EQ(c.size(), 0u);
}

// The dense LRU against a std::list reference: seeded random lookup /
// insert / erase streams over a small id range (so ids repeat constantly),
// at capacities 0, 1 and 1024. Every return value must agree, and the
// resident sets are compared in full at intervals.
class LruDiffTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(LruDiffTest, MatchesTheListReference) {
  const auto [capacity, seed] = GetParam();
  const std::size_t num_data = 2 * capacity + 9;
  LruBlockCache lru(capacity, num_data);
  testing::ReferenceLru ref(capacity);
  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + capacity);
  for (int step = 0; step < 6000; ++step) {
    const auto b = static_cast<DataId>(rng.next_below(num_data));
    const std::uint64_t op = rng.next_below(10);
    SCOPED_TRACE(::testing::Message()
                 << "step " << step << " op " << op << " block " << b);
    if (op < 4) {
      ASSERT_EQ(lru.lookup(b), ref.lookup(b));
    } else if (op < 9) {
      ASSERT_EQ(lru.insert(b), ref.insert(b));
    } else {
      ASSERT_EQ(lru.erase(b), ref.erase(b));
    }
    ASSERT_EQ(lru.size(), ref.size());
    if (step % 97 == 0) {
      for (DataId x = 0; x < num_data; ++x) {
        ASSERT_EQ(lru.contains(x), ref.contains(x)) << "block " << x;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LruDiffTest,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{1024}),
                       ::testing::Range(1, 6)));

TEST(BlockCacheFactory, MakesBothPolicies) {
  LruBlockCache lru(8, /*num_data=*/16);
  EXPECT_STREQ(lru.name(), "lru");
  EXPECT_EQ(lru.capacity(), 8u);
}

// ----------------------------------------------------- zero-alloc lookups

using testing::allocations_during;

TEST(CacheAllocation, SteadyStateLookupsAreAllocationFree) {
  // Warm the cache to capacity, then hammer hits and resident-promotions:
  // relinking moves nodes in place, so the steady state allocates nothing.
  LruBlockCache lru(64, /*num_data=*/64);
  for (DataId b = 0; b < 64; ++b) lru.insert(b);
  std::uint64_t hits = 0;
  const std::uint64_t n = allocations_during([&] {
    for (int round = 0; round < 200; ++round) {
      for (DataId b = 0; b < 64; ++b) {
        hits += lru.lookup(b) ? 1 : 0;
        lru.insert(b);  // resident re-insert = promotion, no allocation
      }
    }
  });
  EXPECT_EQ(n, 0u) << "steady-state lookups allocated";
  EXPECT_EQ(hits, 200u * 64);
}

TEST(CacheAllocation, LruMissInsertsWithEvictionAreAllocationFree) {
  // A full LRU over 4x its capacity in ids: every insert of a non-resident
  // block evicts, and the evicted node carries the newcomer. Erase and
  // re-insert recycle nodes through the free list.
  LruBlockCache lru(64, /*num_data=*/256);
  for (DataId b = 0; b < 64; ++b) lru.insert(b);
  std::uint64_t evictions = 0;
  const std::uint64_t n = allocations_during([&] {
    for (int round = 0; round < 50; ++round) {
      for (DataId b = 0; b < 256; ++b) {
        evictions += lru.insert(b) != kInvalidData ? 1 : 0;
        if (b % 5 == 0) lru.erase((b + 128) % 256);
      }
    }
  });
  EXPECT_EQ(n, 0u) << "miss-inserts allocated";
  EXPECT_GT(evictions, 0u);
}

TEST(CacheAllocation, WarmWriteBackCycleIsAllocationFree) {
  // put -> re-put -> begin_destage -> re-put of an in-flight block ->
  // complete (stale and current) -> drain, over a buffer warmed once. The
  // caller's batch vector is warm too, so nothing may allocate.
  constexpr std::size_t kDisks = 8;
  WriteBackBuffer wb(64, kDisks, /*num_data=*/512);
  std::vector<DataId> batch;
  batch.reserve(64);
  RequestId id = 0;
  double now = 0.0;
  std::uint64_t completed = 0;
  const auto cycle = [&](DataId base) {
    for (DataId i = 0; i < 48; ++i) {
      wb.put(base + i, static_cast<DiskId>(i % kDisks), now);
    }
    wb.put(base, 0, now);  // refresh in place
    for (DiskId k = 0; k < kDisks; ++k) {
      batch.clear();
      const RequestId first = id;
      id += wb.begin_destage(k, 4, first, batch);
      if (k == 1) wb.put(batch.front(), k, now);  // supersede one write
      for (std::size_t j = 0; j < batch.size(); ++j) {
        completed += wb.complete(batch[j], first + j) ? 1 : 0;
      }
    }
    batch.clear();
    wb.drain(3, batch);
    for (DiskId k = 0; k < kDisks; ++k) {
      batch.clear();
      const RequestId first = id;
      id += wb.begin_destage(k, 64, first, batch);
      for (std::size_t j = 0; j < batch.size(); ++j) {
        completed += wb.complete(batch[j], first + j) ? 1 : 0;
      }
    }
    now += 1.0;
  };
  cycle(0);  // warm-up
  ASSERT_EQ(wb.size(), 0u);
  const std::uint64_t n = allocations_during([&] {
    for (int round = 0; round < 100; ++round) {
      cycle(static_cast<DataId>((round % 8) * 64));
    }
  });
  EXPECT_EQ(n, 0u) << "warm write-back cycle allocated";
  EXPECT_EQ(wb.size(), 0u);
  EXPECT_GT(completed, 0u);
}

// -------------------------------------------------------- WriteBackBuffer

TEST(WriteBackBuffer, LifecycleAndPerDiskFifoOrder) {
  WriteBackBuffer wb(/*capacity=*/4, /*num_disks=*/2, /*num_data=*/32);
  EXPECT_TRUE(wb.put(10, 0, 1.0));
  EXPECT_TRUE(wb.put(11, 0, 2.0));
  EXPECT_TRUE(wb.put(20, 1, 3.0));
  EXPECT_EQ(wb.size(), 3u);
  EXPECT_EQ(wb.pending(0), 2u);
  EXPECT_EQ(wb.pending(1), 1u);
  EXPECT_EQ(wb.pending_total(), 3u);
  EXPECT_DOUBLE_EQ(wb.buffered_at(11), 2.0);
  EXPECT_EQ(wb.home_of(20), 1u);

  // Refresh of a pending block keeps its queue position and admission time.
  EXPECT_TRUE(wb.put(10, 0, 5.0));
  EXPECT_EQ(wb.size(), 3u);
  EXPECT_DOUBLE_EQ(wb.buffered_at(10), 1.0);

  // Destage hands out disk 0's blocks in admission order.
  std::vector<DataId> batch;
  EXPECT_EQ(wb.begin_destage(0, 8, /*first_id=*/100, batch), 2u);
  EXPECT_EQ(batch, (std::vector<DataId>{10, 11}));
  EXPECT_EQ(wb.pending(0), 0u);
  EXPECT_EQ(wb.size(), 3u);  // in-flight blocks still occupy slots
  EXPECT_TRUE(wb.contains(10));
  EXPECT_FALSE(wb.is_pending(10));

  EXPECT_FALSE(wb.complete(10, 101));  // 101 is 11's write, not 10's
  EXPECT_TRUE(wb.complete(10, 100));
  EXPECT_FALSE(wb.complete(10, 100));  // stale completion tolerated
  EXPECT_TRUE(wb.complete(11, 101));
  EXPECT_EQ(wb.size(), 1u);
  EXPECT_EQ(wb.pending_total(), 1u);
}

TEST(WriteBackBuffer, FullBufferRejectsAndCallerFallsBackToWriteThrough) {
  WriteBackBuffer wb(2, 1, 8);
  EXPECT_TRUE(wb.put(1, 0, 0.0));
  EXPECT_TRUE(wb.put(2, 0, 0.0));
  EXPECT_TRUE(wb.full());
  EXPECT_FALSE(wb.put(3, 0, 0.0));
  EXPECT_TRUE(wb.put(1, 0, 1.0));  // refresh of a resident block still lands
}

TEST(WriteBackBuffer, OverwriteOfInFlightBlockReenters) {
  WriteBackBuffer wb(4, 1, 8);
  EXPECT_TRUE(wb.put(7, 0, 1.0));
  std::vector<DataId> batch;
  EXPECT_EQ(wb.begin_destage(0, 1, /*first_id=*/1, batch), 1u);
  // A new write lands while the destage is in flight: the block re-enters
  // pending with a fresh admission time; the racing write is stale.
  EXPECT_TRUE(wb.put(7, 0, 2.0));
  EXPECT_TRUE(wb.is_pending(7));
  EXPECT_DOUBLE_EQ(wb.buffered_at(7), 2.0);
  EXPECT_EQ(wb.pending(0), 1u);
  EXPECT_FALSE(wb.complete(7, 1));  // stale destage completion is ignored
  EXPECT_TRUE(wb.contains(7));
  // The re-entered copy destages normally.
  batch.clear();
  EXPECT_EQ(wb.begin_destage(0, 1, /*first_id=*/2, batch), 1u);
  EXPECT_TRUE(wb.complete(7, 2));
  EXPECT_EQ(wb.size(), 0u);
}

TEST(WriteBackBuffer, SupersededDestageCannotRetireTheNewerOne) {
  // Regression: put b, destage it (W1), put b again, force-destage it (W2,
  // queued behind W1), then W1 lands. Matching completions on the block
  // alone let W1 free the slot while W2 was still in flight, so a home-disk
  // death afterwards never drained b and the dirty block vanished uncounted.
  WriteBackBuffer wb(4, 2, 16);
  std::vector<DataId> batch;
  ASSERT_TRUE(wb.put(5, 1, 0.0));
  ASSERT_EQ(wb.begin_destage(1, 8, /*first_id=*/10, batch), 1u);  // W1
  ASSERT_TRUE(wb.put(5, 1, 1.0));  // W1 is stale now
  batch.clear();
  ASSERT_EQ(wb.begin_destage(1, 8, /*first_id=*/11, batch), 1u);  // W2
  EXPECT_FALSE(wb.complete(5, 10));  // W1 lands: ignored
  EXPECT_TRUE(wb.contains(5));
  EXPECT_EQ(wb.size(), 1u);
  // The home disk dies before W2 lands: the block is still drained, so the
  // caller can re-home it or count it lost.
  std::vector<DataId> drained;
  EXPECT_EQ(wb.drain(1, drained), 1u);
  EXPECT_EQ(drained, (std::vector<DataId>{5}));
  EXPECT_FALSE(wb.complete(5, 11));  // the dead disk's W2 never counts
  EXPECT_EQ(wb.size(), 0u);
}

TEST(WriteBackBuffer, DrainEmptiesPendingAndInFlight) {
  WriteBackBuffer wb(8, 2, 16);
  wb.put(1, 0, 0.0);
  wb.put(2, 0, 0.0);
  wb.put(9, 1, 0.0);
  std::vector<DataId> batch;
  wb.begin_destage(0, 1, /*first_id=*/5, batch);  // 1 goes in flight
  std::vector<DataId> drained;
  EXPECT_EQ(wb.drain(0, drained), 2u);
  EXPECT_EQ(drained, (std::vector<DataId>{1, 2}));  // in-flight first
  EXPECT_FALSE(wb.contains(1));
  EXPECT_FALSE(wb.contains(2));
  EXPECT_EQ(wb.pending(0), 0u);
  EXPECT_EQ(wb.pending_total(), 1u);  // disk 1 untouched
  EXPECT_TRUE(wb.contains(9));
  EXPECT_FALSE(wb.complete(1, 5));  // the dead disk's write never completes
}

// The slab buffer against the std::map reference: seeded streams of put,
// re-put (often of an in-flight block), begin_destage, complete (current,
// superseded and drained writes alike) and drain, over a few disks and a
// small id range. Every return value, batch and observer must agree.
class WriteBackDiffTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(WriteBackDiffTest, MatchesTheMapReference) {
  const auto [capacity, seed] = GetParam();
  constexpr std::size_t kDisks = 3;
  constexpr std::size_t kNumData = 24;
  WriteBackBuffer wb(capacity, kDisks, kNumData);
  testing::ReferenceWriteBack ref(capacity, kDisks);
  util::Rng rng(static_cast<std::uint64_t>(seed) * 104729 + capacity);
  // Every destage write issued and not yet completed: (block, id).
  std::vector<std::pair<DataId, RequestId>> issued;
  RequestId next_id = 0;
  double now = 0.0;
  std::vector<DataId> got;
  std::vector<DataId> want;
  for (int step = 0; step < 4000; ++step) {
    now += 0.5;
    const std::uint64_t op = rng.next_below(12);
    const auto k = static_cast<DiskId>(rng.next_below(kDisks));
    SCOPED_TRACE(::testing::Message() << "step " << step << " op " << op);
    got.clear();
    want.clear();
    if (op < 5) {
      const auto b = static_cast<DataId>(rng.next_below(kNumData));
      ASSERT_EQ(wb.put(b, k, now), ref.put(b, k, now)) << "block " << b;
    } else if (op < 6 && !issued.empty()) {
      // Re-put a block whose write is (or was) racing to disk.
      const DataId b = issued[rng.next_below(issued.size())].first;
      ASSERT_EQ(wb.put(b, k, now), ref.put(b, k, now)) << "block " << b;
    } else if (op < 8) {
      const std::size_t max = 1 + rng.next_below(4);
      const std::size_t n = wb.begin_destage(k, max, next_id, got);
      ASSERT_EQ(n, ref.begin_destage(k, max, next_id, want));
      ASSERT_EQ(got, want);
      for (std::size_t i = 0; i < n; ++i) issued.emplace_back(got[i], next_id + i);
      next_id += n;
    } else if (op < 11 && !issued.empty()) {
      const std::size_t i = rng.next_below(issued.size());
      const auto [b, id] = issued[i];
      issued.erase(issued.begin() + static_cast<std::ptrdiff_t>(i));
      ASSERT_EQ(wb.complete(b, id), ref.complete(b, id))
          << "block " << b << " id " << id;
    } else if (op == 11) {
      ASSERT_EQ(wb.drain(k, got), ref.drain(k, want));
      ASSERT_EQ(got, want);
    }
    ASSERT_EQ(wb.size(), ref.size());
    ASSERT_EQ(wb.pending_total(), ref.pending_total());
    std::vector<std::uint64_t> want_pending(kDisks);
    for (DiskId d = 0; d < kDisks; ++d) {
      ASSERT_EQ(wb.pending(d), ref.pending(d)) << "disk " << d;
      want_pending[d] = ref.pending(d);
    }
    const auto counts = wb.pending_counts();
    ASSERT_EQ(std::vector<std::uint64_t>(counts.begin(), counts.end()),
              want_pending);
    for (DataId b = 0; b < kNumData; ++b) {
      ASSERT_EQ(wb.contains(b), ref.contains(b)) << "block " << b;
      ASSERT_EQ(wb.is_pending(b), ref.is_pending(b)) << "block " << b;
      if (ref.contains(b)) {
        ASSERT_EQ(wb.home_of(b), ref.home_of(b)) << "block " << b;
        ASSERT_EQ(wb.buffered_at(b), ref.buffered_at(b)) << "block " << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, WriteBackDiffTest,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{6}, std::size_t{64}),
                       ::testing::Range(1, 6)));

}  // namespace
}  // namespace eas::cache

// ---------------------------------------------------------------------------
// Integration: the tier inside StorageSystem.

namespace eas::storage {
namespace {

using cache::CacheConfig;

/// Mixed trace helper over the paper's six blocks.
trace::TraceRecord rec(double t, DataId b, bool is_read) {
  trace::TraceRecord r;
  r.time = t;
  r.data = b;
  r.size_bytes = 64 * 1024;
  r.is_read = is_read;
  return r;
}

CacheConfig small_cache() {
  CacheConfig c;
  c.enabled = true;
  c.capacity_blocks = 8;
  c.dirty_capacity_blocks = 8;
  return c;
}

TEST(CacheRun, RepeatHitsServeAtDramLatencyWithoutWakingDisks) {
  // 12 reads of the same block, spaced past the paper disk's 10 s spin-up
  // so the first completion populates the cache before the next arrival:
  // one spin-up for the miss, then pure cache hits at DRAM latency.
  std::vector<trace::TraceRecord> recs;
  for (int i = 0; i < 12; ++i) recs.push_back(rec(i * 15.0, 2, true));
  SystemConfig cfg;
  cfg.cache = small_cache();
  core::StaticScheduler sched;
  power::FixedThresholdPolicy policy;
  const auto r = run_online(cfg, testing::example_placement(),
                            trace::Trace(std::move(recs)), sched, policy);
  EXPECT_TRUE(r.cache_enabled);
  EXPECT_EQ(r.cache_stats.lookups, 12u);
  EXPECT_EQ(r.cache_stats.misses, 1u);
  EXPECT_EQ(r.cache_stats.hits_clean, 11u);
  EXPECT_DOUBLE_EQ(r.cache_stats.hit_ratio(), 11.0 / 12.0);
  EXPECT_EQ(r.total_spin_ups(), 1u);  // hits never wake a disk
  EXPECT_EQ(r.response_times.count(), 12u);
  // 11 of 12 responses are the 20 us DRAM hit.
  EXPECT_LT(r.response_times.median(), 1e-3);
}

TEST(CacheRun, DestagePiggybacksOnAForegroundSpinUp) {
  // A write to block b1 (homed on standby disk 0) buffers; a later read of
  // b2 wakes disk 0; the idle transition after serving it flushes the dirty
  // group on the same spin-up — no forced destage, one spin-up total.
  std::vector<trace::TraceRecord> recs;
  recs.push_back(rec(0.0, 0, false));  // write b1 -> buffered (disk asleep)
  recs.push_back(rec(1.0, 1, true));   // read b2 -> wakes disk 0
  SystemConfig cfg;
  cfg.cache = small_cache();
  cfg.cache.destage_deadline_seconds = 1e6;  // deadline can't fire first
  core::StaticScheduler sched;
  power::FixedThresholdPolicy policy;
  const auto r = run_online(cfg, testing::example_placement(),
                            trace::Trace(std::move(recs)), sched, policy);
  EXPECT_EQ(r.cache_stats.writes_buffered, 1u);
  EXPECT_EQ(r.cache_stats.destage_piggyback, 1u);
  EXPECT_EQ(r.cache_stats.destage_forced, 0u);
  EXPECT_EQ(r.cache_stats.destaged_blocks, 1u);
  EXPECT_EQ(r.total_spin_ups(), 1u);  // the destage rode the read's wake
}

TEST(CacheRun, WatermarkForcesDestageUnderPressure) {
  // Dirty capacity 4, high watermark at 3 blocks: the third write to a
  // sleeping disk triggers a forced (watermark) destage run.
  std::vector<trace::TraceRecord> recs;
  recs.push_back(rec(0.0, 0, false));   // b1 -> disk 0
  recs.push_back(rec(0.1, 1, false));   // b2 -> disk 0
  recs.push_back(rec(0.2, 4, false));   // b5 -> disk 0
  SystemConfig cfg;
  cfg.cache = small_cache();
  cfg.cache.dirty_capacity_blocks = 4;  // high = max(1, 3), low = 2
  cfg.cache.destage_deadline_seconds = 1e6;
  core::StaticScheduler sched;
  power::FixedThresholdPolicy policy;
  const auto r = run_online(cfg, testing::example_placement(),
                            trace::Trace(std::move(recs)), sched, policy);
  EXPECT_EQ(r.cache_stats.writes_buffered, 3u);
  EXPECT_GE(r.cache_stats.destage_forced, 1u);
  EXPECT_EQ(r.cache_stats.destaged_blocks, 3u);
  EXPECT_GE(r.total_spin_ups(), 1u);  // the forced destage paid a wake
}

TEST(CacheRun, DeadlineBoundsDirtyDataAge) {
  // One write, no other traffic: nothing would ever destage without the
  // deadline backstop.
  std::vector<trace::TraceRecord> recs;
  recs.push_back(rec(0.0, 0, false));
  SystemConfig cfg;
  cfg.cache = small_cache();
  cfg.cache.destage_deadline_seconds = 2.0;
  core::StaticScheduler sched;
  power::FixedThresholdPolicy policy;
  const auto r = run_online(cfg, testing::example_placement(),
                            trace::Trace(std::move(recs)), sched, policy);
  EXPECT_EQ(r.cache_stats.writes_buffered, 1u);
  EXPECT_EQ(r.cache_stats.destage_forced, 1u);
  EXPECT_EQ(r.cache_stats.destaged_blocks, 1u);
  EXPECT_GE(r.horizon, 2.0);  // the run ran out to the deadline flush
}

TEST(CacheRun, DirtyBlocksOnAFailedDiskRedirectOrCountLost) {
  // Two buffered writes homed on disk 0: b2 (data 1) also lives on disk 1
  // and is re-homed when disk 0 dies; b1 (data 0) has no other replica and
  // is counted lost + unavailable. The cache never masks the loss.
  std::vector<trace::TraceRecord> recs;
  recs.push_back(rec(0.0, 0, false));  // b1: locations {0}
  recs.push_back(rec(0.1, 1, false));  // b2: locations {0, 1}
  // Unrelated read on disk 2 stretches the trace horizon past the scripted
  // failure time (the injector never schedules events beyond the horizon).
  recs.push_back(rec(10.0, 3, true));
  SystemConfig cfg;
  cfg.cache = small_cache();
  cfg.cache.destage_deadline_seconds = 5.0;
  fault::ScriptedFault f;
  f.disk = 0;
  f.time = 1.0;  // dies before any destage deadline
  cfg.fault.script.push_back(f);
  core::StaticScheduler sched;
  power::FixedThresholdPolicy policy;
  const auto r = run_online(cfg, testing::example_placement(),
                            trace::Trace(std::move(recs)), sched, policy);
  EXPECT_EQ(r.cache_stats.writes_buffered, 2u);
  EXPECT_EQ(r.cache_stats.dirty_redirected, 1u);
  EXPECT_EQ(r.cache_stats.dirty_lost, 1u);
  EXPECT_GE(r.fault_stats.failovers, 1u);
  EXPECT_GE(r.fault_stats.unavailable_requests, 1u);
  // The redirected block destages onto its replica home (disk 1).
  EXPECT_EQ(r.cache_stats.destaged_blocks, 1u);
  EXPECT_EQ(r.disk_stats[1].requests_served, 1u);
}

TEST(CacheRun, LostCleanCopyNeverMasksAnUnavailableBlock) {
  // b1 (data 0, single replica on disk 0) is read once (cached), then the
  // disk dies. The later read must NOT be served from cache: the cached
  // copy is dropped and the request counts unavailable, exactly as it
  // would without a cache tier.
  std::vector<trace::TraceRecord> recs;
  recs.push_back(rec(0.0, 0, true));
  recs.push_back(rec(5.0, 0, true));
  SystemConfig cfg;
  cfg.initial_state = disk::DiskState::Idle;
  cfg.cache = small_cache();
  fault::ScriptedFault f;
  f.disk = 0;
  f.time = 2.0;
  cfg.fault.script.push_back(f);
  core::StaticScheduler sched;
  power::AlwaysOnPolicy policy;
  const auto r = run_online(cfg, testing::example_placement(),
                            trace::Trace(std::move(recs)), sched, policy);
  EXPECT_EQ(r.cache_stats.lost_copies_dropped, 1u);
  EXPECT_EQ(r.cache_stats.hits_clean, 0u);
  EXPECT_GE(r.fault_stats.unavailable_requests, 1u);
  EXPECT_EQ(r.response_times.count(), 1u);  // only the first read completed
}

TEST(CacheRun, EnabledZeroCapacityTierIsBitIdenticalToDisabled) {
  // An enabled cache with zero capacities must not perturb a single result
  // bit: every lookup misses, every write falls through.
  const auto trace = []() {
    std::vector<trace::TraceRecord> recs;
    for (int i = 0; i < 24; ++i) {
      recs.push_back(rec(i * 0.7, static_cast<DataId>(i % 6), i % 3 != 0));
    }
    return trace::Trace(std::move(recs));
  };
  SystemConfig off;
  SystemConfig zero;
  zero.cache.enabled = true;  // capacities stay 0
  auto run = [&](const SystemConfig& cfg) {
    core::CostFunctionScheduler sched;
    power::FixedThresholdPolicy policy;
    return run_online(cfg, testing::example_placement(), trace(), sched,
                      policy);
  };
  const auto a = run(off);
  const auto b = run(zero);
  EXPECT_FALSE(a.cache_enabled);
  EXPECT_TRUE(b.cache_enabled);
  EXPECT_EQ(a.total_energy(), b.total_energy());  // bitwise, not NEAR
  EXPECT_EQ(a.mean_response(), b.mean_response());
  EXPECT_EQ(a.total_spin_ups(), b.total_spin_ups());
  EXPECT_EQ(a.total_spin_downs(), b.total_spin_downs());
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.response_times.count(), b.response_times.count());
  // The dormant tier still counts: 8 writes fell through, every read missed.
  EXPECT_EQ(b.cache_stats.writes_through, 8u);
  EXPECT_EQ(b.cache_stats.misses, 16u);
  EXPECT_EQ(b.cache_stats.hits_clean + b.cache_stats.hits_dirty, 0u);
}

TEST(CacheRun, ResultJsonGrowsCacheObjectOnlyWhenEnabled) {
  std::vector<trace::TraceRecord> recs;
  recs.push_back(rec(0.0, 2, true));
  SystemConfig plain;
  core::StaticScheduler sched;
  power::AlwaysOnPolicy policy;
  plain.initial_state = disk::DiskState::Idle;
  const auto off = run_online(plain, testing::example_placement(),
                              trace::Trace(recs), sched, policy);
  EXPECT_EQ(off.to_json().find("\"cache\""), std::string::npos);
  EXPECT_EQ(off.to_json().find("\"write_offload\""), std::string::npos);

  SystemConfig with;
  with.initial_state = disk::DiskState::Idle;
  with.cache = small_cache();
  const auto on = run_online(with, testing::example_placement(),
                             trace::Trace(recs), sched, policy);
  const std::string json = on.to_json();
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"memory_energy_joules\""), std::string::npos);
}

TEST(CacheRun, MixedRunSurfacesWriteOffloadStats) {
  // Satellite: run_online_mixed now reports the off-loader's counters in
  // RunResult (and its JSON) behind the same enabled-only emission rule.
  std::vector<trace::TraceRecord> recs;
  recs.push_back(rec(0.0, 1, false));
  recs.push_back(rec(1.0, 2, true));
  SystemConfig cfg;
  cfg.initial_state = disk::DiskState::Idle;
  core::CostFunctionScheduler sched;
  power::AlwaysOnPolicy policy;
  core::WriteOffloadManager offloader;
  const auto r = run_online_mixed(cfg, testing::example_placement(),
                                  trace::Trace(recs), sched, policy,
                                  offloader);
  EXPECT_TRUE(r.write_offload_enabled);
  EXPECT_EQ(r.write_offload_stats.writes_total, 1u);
  EXPECT_NE(r.to_json().find("\"write_offload\""), std::string::npos);
}

TEST(CacheRun, MixedRunRejectsTheCacheTier) {
  SystemConfig cfg;
  cfg.cache = small_cache();
  core::CostFunctionScheduler sched;
  power::AlwaysOnPolicy policy;
  core::WriteOffloadManager offloader;
  std::vector<trace::TraceRecord> recs;
  recs.push_back(rec(0.0, 1, false));
  EXPECT_THROW(run_online_mixed(cfg, testing::example_placement(),
                                trace::Trace(recs), sched, policy, offloader),
               InvariantError);
}

TEST(CacheRun, MemoryEnergyIsChargedOverTheHorizon) {
  std::vector<trace::TraceRecord> recs;
  recs.push_back(rec(0.0, 2, true));
  recs.push_back(rec(10.0, 2, true));
  SystemConfig cfg;
  cfg.initial_state = disk::DiskState::Idle;
  cfg.cache = small_cache();
  core::StaticScheduler sched;
  power::AlwaysOnPolicy policy;
  const auto r = run_online(cfg, testing::example_placement(),
                            trace::Trace(recs), sched, policy);
  EXPECT_DOUBLE_EQ(r.cache_stats.memory_energy_joules,
                   cfg.cache.memory_energy_joules(r.horizon));
  EXPECT_GT(r.cache_stats.memory_energy_joules, 0.0);
}

// A tiers cell shaped like the end-to-end benchmark's: LRU 1,024 / dirty
// 256, reliability with deadlines, hedges and a bounded queue, one failed and
// repaired disk, Financial-like traffic with 30% writes.
runner::ExperimentParams tiers_cell(std::size_t requests) {
  CacheConfig cc;
  cc.capacity_blocks = 1024;
  cc.dirty_capacity_blocks = 256;
  reliability::ReliabilityConfig rc;
  rc.deadline_seconds = 5.0;
  rc.max_attempts = 3;
  rc.hedge_delay_seconds = 0.5;
  rc.max_queue_depth = 16;
  runner::ExperimentBuilder b(runner::Workload::kFinancial);
  b.requests(requests).disks(180).replication(3).cache(cc).reliability(rc)
      .fail_disk_at(7, 100.0, 100.0);
  return b.build();
}

/// Allocations of one run_cell of the heuristic scheduler on `p` over
/// `trace`, built outside the count.
std::uint64_t heuristic_cell_allocations(const runner::ExperimentParams& p,
                                         const trace::Trace& trace) {
  const auto placement = runner::make_shared_placement(p);
  std::uint64_t completed = 0;
  const std::uint64_t n = testing::allocations_during([&] {
    completed = runner::run_cell(runner::SchedulerRegistry::global(),
                                 "heuristic", p, trace, *placement)
                    .total_requests;
  });
  EXPECT_GT(completed, trace.size() * 9 / 10);
  return n;
}

/// Allocations of one run_cell of tiers_cell(requests).
std::uint64_t tiers_cell_allocations(std::size_t requests) {
  trace::SyntheticTraceConfig tc = trace::financial_like_config(1);
  tc.num_requests = requests;
  tc.write_fraction = 0.3;
  return heuristic_cell_allocations(tiers_cell(requests),
                                    trace::make_synthetic_trace(tc));
}

/// The end-to-end benchmark's online cell shape: Cello-like reads, 180
/// disks, rf 3, 2CPM, no tiers.
runner::ExperimentParams online_cell(std::size_t requests) {
  runner::ExperimentBuilder b(runner::Workload::kCello);
  b.requests(requests).disks(180).replication(3);
  return b.build();
}

trace::Trace online_trace(std::size_t requests) {
  trace::SyntheticTraceConfig tc = trace::cello_like_config(1);
  tc.num_requests = requests;
  return trace::make_synthetic_trace(tc);
}

/// Allocations of one run_cell of online_cell(requests).
std::uint64_t online_cell_allocations(std::size_t requests) {
  return heuristic_cell_allocations(online_cell(requests),
                                    online_trace(requests));
}

/// Bytes allocated by one run_cell of online_cell(requests) plus what its
/// result's readers allocate: to_json(true) and the in-place sort of the
/// response samples. Trace and placement are built outside the count.
std::uint64_t online_cell_bytes(std::size_t requests) {
  const runner::ExperimentParams p = online_cell(requests);
  const trace::Trace trace = online_trace(requests);
  const auto placement = runner::make_shared_placement(p);
  std::size_t json_size = 0;
  const std::uint64_t bytes = testing::bytes_during([&] {
    storage::RunResult r = runner::run_cell(
        runner::SchedulerRegistry::global(), "heuristic", p, trace, *placement);
    json_size = r.to_json(true).size();
    EXPECT_EQ(r.response_times.sorted().size(), r.total_requests);
  });
  EXPECT_GT(json_size, 0u);
  return bytes;
}

/// Allocations (or bytes) per request between an N- and a 2N-request run:
/// what N more steady-state requests cost. Signed, because growth that
/// depends on the traffic (a disk queue passing its peak depth) can land in
/// either run.
double per_extra_request(std::uint64_t once, std::uint64_t twice,
                         std::size_t n) {
  return (static_cast<double>(twice) - static_cast<double>(once)) /
         static_cast<double>(n);
}

// Run-level allocation pin. The disk fails and is repaired inside the first
// N requests' span (~440 s at 45 req/s), so the difference between the N-
// and 2N-request runs is what N more steady-state requests cost: cache hits
// and misses, buffered writes and destages, deadlines, hedges and sheds.
TEST(CacheRun, TiersCellAllocatesLittlePerSteadyStateRequest) {
  constexpr std::size_t kN = 20000;
  const std::uint64_t once = tiers_cell_allocations(kN);
  const std::uint64_t twice = tiers_cell_allocations(2 * kN);
  const double per_request = per_extra_request(once, twice, kN);
  RecordProperty("allocations_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, 0.001)
      << once << " allocations for " << kN << " requests, " << twice
      << " for " << 2 * kN;
}

// The same pin on the online cell: every pick, dispatch, queue push and
// completion of the untiered heuristic path is allocation-free once warm.
TEST(CacheRun, OnlineCellAllocatesLittlePerSteadyStateRequest) {
  constexpr std::size_t kN = 20000;
  const std::uint64_t once = online_cell_allocations(kN);
  const std::uint64_t twice = online_cell_allocations(2 * kN);
  const double per_request = per_extra_request(once, twice, kN);
  RecordProperty("allocations_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, 0.001)
      << once << " allocations for " << kN << " requests, " << twice
      << " for " << 2 * kN;
}

// Run-level memory pin: a run holds each response sample once, in a buffer
// sized for the trace before the first arrival, and reading the result's
// quantiles and sorted samples copies none of them. So N more requests cost
// one double each, plus what the rest of the run allocates per request
// (nothing once warm, per the allocation pins above). A doubling store
// would add ~1-3 doubles per request and a selection copy one more.
TEST(CacheRun, OnlineCellHoldsEachResponseSampleOnce) {
  constexpr std::size_t kN = 20000;
  const std::uint64_t once = online_cell_bytes(kN);
  const std::uint64_t twice = online_cell_bytes(2 * kN);
  const double per_request = per_extra_request(once, twice, kN);
  RecordProperty("bytes_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, 8.5)
      << once << " bytes for " << kN << " requests, " << twice << " for "
      << 2 * kN;
}

// --------------------------------------------- scheduler & policy coupling

TEST(DestagePressure, CostSchedulerBiasesTowardDisksWithPendingWork) {
  // b3 (data 2) lives on {0, 1, 3}, all standby => equal base cost, tie
  // broken to replica 0. Pending destage work on disk 3 discounts it below
  // the tie and wins the pick; with no pending work the pick is unchanged
  // (exact identity, the cache-off bit-identity hinges on it).
  testing::ScriptedFleet fleet(testing::example_placement());
  std::vector<std::uint64_t> pending(fleet.placement.num_disks(), 0);
  fleet.view.set_pending_destage(pending);
  core::CostFunctionScheduler sched;
  disk::Request r;
  r.id = 1;
  r.data = 2;
  EXPECT_EQ(sched.pick(r, fleet.view), 0u);
  pending[3] = 2;
  EXPECT_EQ(sched.pick(r, fleet.view), 3u);
}

TEST(DestagePressure, FixedThresholdDefersSpinDownWhileDestagePending) {
  sim::Simulator sim;
  disk::Disk d(0, sim, disk::example_power_params(), disk::DiskPerfParams{},
               disk::DiskState::Idle);
  power::FixedThresholdPolicy policy;
  std::uint64_t pending = 1;
  policy.set_destage_probe([&pending](DiskId) { return pending; });
  // Pending destage work: no spin-down timer is armed, the disk stays
  // spinning for the piggyback.
  policy.on_disk_idle(sim, d);
  sim.run();
  EXPECT_EQ(d.state(), disk::DiskState::Idle);
  // Work flushed: the ordinary 2CPM timer arms and the disk spins down.
  pending = 0;
  policy.on_disk_idle(sim, d);
  sim.run();
  EXPECT_EQ(d.state(), disk::DiskState::Standby);
}

}  // namespace
}  // namespace eas::storage
