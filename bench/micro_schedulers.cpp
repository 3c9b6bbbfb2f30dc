// Micro-benchmarks: per-request scheduling decision latency. The online
// heuristic must be cheap enough to sit on the I/O dispatch path.
#include <benchmark/benchmark.h>

#include "core/basic_schedulers.hpp"
#include "core/cost_scheduler.hpp"
#include "core/wsc_scheduler.hpp"
#include "fault/failure_view.hpp"
#include "placement/placement.hpp"
#include "util/rng.hpp"

using namespace eas;

namespace {

placement::PlacementMap bench_placement() {
  placement::ZipfPlacementConfig cfg;
  cfg.num_disks = 180;
  cfg.num_data = 32768;
  cfg.replication_factor = 3;
  return placement::make_zipf_placement(cfg);
}

/// A static fleet for decision benchmarks: the bench placement, seeded
/// synthetic disk status rows and the view over them at t = 100 s.
struct BenchFleet {
  explicit BenchFleet(std::uint64_t seed)
      : placement(bench_placement()),
        rows(placement.num_disks()),
        view(placement, power, rows) {
    util::Rng rng(seed);
    for (auto& s : rows) {
      s.state = static_cast<disk::DiskState>(rng.next_below(5));
      if (s.state == disk::DiskState::SpinningUp ||
          s.state == disk::DiskState::SpinningDown) {
        s.state = disk::DiskState::Idle;
      }
      s.last_request_time = rng.uniform(0.0, 100.0);
      s.queued_requests = static_cast<std::size_t>(rng.next_below(8));
    }
    view.set_now(100.0);
  }
  BenchFleet(const BenchFleet&) = delete;
  BenchFleet& operator=(const BenchFleet&) = delete;

  placement::PlacementMap placement;
  disk::DiskPowerParams power;
  std::vector<disk::DiskStatus> rows;
  core::SystemView view;
};

template <typename Scheduler>
void run_pick(benchmark::State& state, Scheduler& sched) {
  const BenchFleet fleet(3);
  util::Rng rng(9);
  for (auto _ : state) {
    disk::Request r;
    r.data = static_cast<DataId>(rng.next_below(32768));
    benchmark::DoNotOptimize(sched.pick(r, fleet.view));
  }
}

void BM_PickStatic(benchmark::State& state) {
  core::StaticScheduler sched;
  run_pick(state, sched);
}
BENCHMARK(BM_PickStatic);

void BM_PickRandom(benchmark::State& state) {
  core::RandomScheduler sched(1);
  run_pick(state, sched);
}
BENCHMARK(BM_PickRandom);

void BM_PickHeuristic(benchmark::State& state) {
  core::CostFunctionScheduler sched;
  run_pick(state, sched);
}
BENCHMARK(BM_PickHeuristic);

// Failover-path cost: the same decisions with one dead disk in the
// FailureView, so every pick/cover filters candidates through the degraded
// view. The delta against the fault-free twin above is the price of the
// degraded-mode branch — tracked in BENCH_micro.json.
void BM_PickHeuristicDegraded(benchmark::State& state) {
  BenchFleet fleet(3);
  fault::FailureView fv(180);
  fv.set_health(0.0, 7, fault::DiskHealth::kDown);
  fleet.view.set_failure_view(&fv);
  core::CostFunctionScheduler sched;
  util::Rng rng(9);
  for (auto _ : state) {
    disk::Request r;
    r.data = static_cast<DataId>(rng.next_below(32768));
    benchmark::DoNotOptimize(sched.pick(r, fleet.view));
  }
}
BENCHMARK(BM_PickHeuristicDegraded);

void BM_WscAssignBatch(benchmark::State& state) {
  const BenchFleet fleet(3);
  core::WscBatchScheduler sched(0.1);
  util::Rng rng(11);
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  std::vector<disk::Request> batch;
  for (std::size_t i = 0; i < batch_size; ++i) {
    disk::Request r;
    r.id = i;
    r.data = static_cast<DataId>(rng.next_below(32768));
    batch.push_back(r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.assign(batch, fleet.view));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_WscAssignBatch)->Arg(4)->Arg(32)->Arg(256);

void BM_WscAssignBatchDegraded(benchmark::State& state) {
  BenchFleet fleet(3);
  fault::FailureView fv(180);
  fv.set_health(0.0, 7, fault::DiskHealth::kDown);
  fleet.view.set_failure_view(&fv);
  core::WscBatchScheduler sched(0.1);
  util::Rng rng(11);
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  std::vector<disk::Request> batch;
  for (std::size_t i = 0; i < batch_size; ++i) {
    disk::Request r;
    r.id = i;
    r.data = static_cast<DataId>(rng.next_below(32768));
    batch.push_back(r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.assign(batch, fleet.view));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_WscAssignBatchDegraded)->Arg(32)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
