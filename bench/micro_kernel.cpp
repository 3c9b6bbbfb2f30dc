// Micro-benchmarks: event kernel and disk entity hot paths, with and
// without the trace recorder attached (the tracing-off numbers are the ones
// the ≤2% observability overhead budget is judged against).
#include <benchmark/benchmark.h>

#include "disk/disk.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/simulator.hpp"

using namespace eas;

namespace {

void BM_ScheduleAndFire(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::uint64_t a = 0, b = 0, c = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_at(static_cast<double>(i % 64),
                      [&a, &b, &c, i] { a += i + b + c; });
    }
    benchmark::DoNotOptimize(sim.run());
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
// 256 is the size real runs reach (at most 3 x disks + 1 pending events);
// 1 << 17 is far past it.
BENCHMARK(BM_ScheduleAndFire)
    ->Arg(256)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17);

void BM_ScheduleCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(4096);
    std::uint64_t a = 0, b = 0, c = 0;
    for (int i = 0; i < 4096; ++i) {
      handles.push_back(
          sim.schedule_at(1.0 + i, [&a, &b, &c, i] { a += b + c + i; }));
    }
    for (auto& h : handles) sim.cancel(h);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ScheduleCancel);

void BM_TimerChurn(benchmark::State& state) {
  // The spin-down timer's shape: 180 owners (disks) each keep one 30 s
  // timer beside 180 unrelated pending heap events, and every item cancels
  // one owner's timer and re-arms it. lane:0 arms through schedule_in (a
  // heap push, with stale heap keys dropped as they surface or by a
  // rebuild), lane:1 through a delay lane (an O(1) append).
  const bool use_lane = state.range(0) != 0;
  constexpr std::size_t kTimers = 180;
  sim::Simulator sim;
  const auto lane = sim.delay_lane(30.0);
  std::uint64_t a = 0;
  for (std::size_t i = 0; i < kTimers; ++i) {
    sim.schedule_at(1e6 + static_cast<double>(i), [&a] { ++a; });
  }
  std::vector<sim::EventHandle> timers(kTimers);
  std::uint64_t x = 1;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    sim::EventHandle& h = timers[(x >> 33) % kTimers];
    sim.cancel(h);
    h = use_lane ? sim.schedule_on(lane, [&a] { ++a; })
                 : sim.schedule_in(30.0, [&a] { ++a; });
  }
  benchmark::DoNotOptimize(a);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimerChurn)->ArgName("lane")->Arg(0)->Arg(1);

void BM_DiskServiceLoop(benchmark::State& state) {
  // Submit-serve-complete cycles on one idle disk (no power transitions).
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    disk::Disk d(0, sim, disk::DiskPowerParams{}, disk::DiskPerfParams{},
                 disk::DiskState::Idle);
    for (std::size_t i = 0; i < n; ++i) {
      disk::Request r;
      r.id = i;
      r.data = 0;
      d.submit(r);
    }
    sim.run();
    benchmark::DoNotOptimize(d.stats().requests_served);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DiskServiceLoop)->Arg(1 << 10)->Arg(1 << 14);

void BM_DiskSpinCycle(benchmark::State& state) {
  // Full standby -> spin-up -> serve -> idle -> spin-down cycles.
  for (auto _ : state) {
    sim::Simulator sim;
    disk::Disk d(0, sim, disk::DiskPowerParams{}, disk::DiskPerfParams{},
                 disk::DiskState::Standby);
    for (int i = 0; i < 64; ++i) {
      sim.schedule_at(100.0 * i, [&d, i] {
        disk::Request r;
        r.id = static_cast<RequestId>(i);
        d.submit(r);
      });
      sim.schedule_at(100.0 * i + 50.0, [&d] {
        if (d.state() == disk::DiskState::Idle) d.spin_down();
      });
    }
    sim.run();
    benchmark::DoNotOptimize(d.stats().spin_ups);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DiskSpinCycle);

void BM_DiskServiceLoopTraced(benchmark::State& state) {
  // BM_DiskServiceLoop with a recorder attached: the delta against the
  // untraced run is the cost of the EAS_OBS sites actually firing (queue +
  // service begin/end per request) into a warm preallocated ring.
  const auto n = static_cast<std::size_t>(state.range(0));
  obs::TraceRecorder rec({.enabled = true, .capacity = 1u << 12});
  for (auto _ : state) {
    sim::Simulator sim;
    sim.set_recorder(&rec);
    disk::Disk d(0, sim, disk::DiskPowerParams{}, disk::DiskPerfParams{},
                 disk::DiskState::Idle);
    for (std::size_t i = 0; i < n; ++i) {
      disk::Request r;
      r.id = i;
      r.data = 0;
      d.submit(r);
    }
    sim.run();
    benchmark::DoNotOptimize(d.stats().requests_served);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DiskServiceLoopTraced)->Arg(1 << 10)->Arg(1 << 14);

void BM_TraceRecord(benchmark::State& state) {
  // Raw ring append throughput, wrap included: the per-site ceiling every
  // instrumented hot path pays when its category is enabled.
  obs::TraceRecorder rec({.enabled = true, .capacity = 1u << 16});
  std::uint64_t i = 0;
  for (auto _ : state) {
    rec.record(static_cast<double>(i), obs::Ev::kQueue, i, 3, 7);
    ++i;
    benchmark::DoNotOptimize(rec.recorded());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceRecord);

}  // namespace

BENCHMARK_MAIN();
