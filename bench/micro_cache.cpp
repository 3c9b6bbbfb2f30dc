// Micro-benchmarks: cache-tier hot paths. A lookup sits on every request's
// dispatch path and a destage batch runs inside the disk idle callback, so
// both must stay cheap and allocation-free in the steady state (the
// counting-allocator test in test_cache pins the latter literally; these
// benches track the constant factors).
#include <benchmark/benchmark.h>

#include <vector>

#include "cache/block_cache.hpp"
#include "cache/write_back.hpp"

using namespace eas;

namespace {

constexpr std::size_t kCapacity = 4096;
/// Block-id range the caches and buffer are sized for; the miss and destage
/// streams wrap inside it.
constexpr std::size_t kNumData = std::size_t{1} << 20;

void BM_CacheLookup(benchmark::State& state) {
  cache::LruBlockCache c(kCapacity, kNumData);
  for (DataId b = 0; b < kCapacity; ++b) c.insert(b);
  DataId b = 0;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    hits += c.lookup(b) ? 1 : 0;
    b = (b + 7) & (kCapacity - 1);  // stride through the resident set
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_CacheMissInsert(benchmark::State& state) {
  // Cold-miss insert + eviction churn: the worst-case per-request cost.
  cache::LruBlockCache c(kCapacity, kNumData);
  DataId b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.insert(b));
    b = (b + 1) & (kNumData - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_DestageBatch(benchmark::State& state) {
  // One put -> begin_destage -> complete cycle per iteration, batched at
  // the default size over a 64-disk group spread.
  constexpr std::size_t kDisks = 64;
  constexpr std::size_t kBatch = 8;
  cache::WriteBackBuffer wb(kCapacity, kDisks, kNumData);
  std::vector<DataId> batch;
  batch.reserve(kBatch);
  DataId b = 0;
  RequestId id = 0;
  double now = 0.0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      wb.put(static_cast<DataId>(b + i), static_cast<DiskId>(b % kDisks), now);
    }
    batch.clear();
    wb.begin_destage(static_cast<DiskId>(b % kDisks), kBatch, id, batch);
    for (const DataId d : batch) wb.complete(d, id++);
    b = static_cast<DataId>((b + kBatch) & (kNumData - 1));
    now += 1.0;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kBatch));
}

}  // namespace

// Named rows keep the `/lru` suffix so recorded trajectories stay paired.
BENCHMARK(BM_CacheLookup)->Name("BM_CacheLookup/lru");
BENCHMARK(BM_CacheMissInsert)->Name("BM_CacheMissInsert/lru");
BENCHMARK(BM_DestageBatch);

BENCHMARK_MAIN();
