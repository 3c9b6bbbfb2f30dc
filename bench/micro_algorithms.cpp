// Micro-benchmarks: combinatorial kernels (set cover, GWMIN, conflict-graph
// construction, offline refinement, Zipf sampling, response quantiles).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

#include "core/conflict_graph.hpp"
#include "core/mwis_scheduler.hpp"
#include "core/refine.hpp"
#include "graph/mwis.hpp"
#include "graph/set_cover.hpp"
#include "placement/placement.hpp"
#include "stats/summary.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

using namespace eas;

namespace {

graph::SetCoverInstance random_cover(std::size_t elements, std::size_t sets,
                                     double density, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<graph::SetSpec> specs(sets);
  for (auto& s : specs) {
    s.weight = rng.uniform(0.5, 10.0);
    for (std::uint32_t e = 0; e < elements; ++e) {
      if (rng.bernoulli(density)) s.elements.push_back(e);
    }
  }
  // One universal set guarantees feasibility.
  specs.push_back({100.0, {}});
  for (std::uint32_t e = 0; e < elements; ++e) {
    specs.back().elements.push_back(e);
  }
  return graph::make_set_cover(elements, specs);
}

void BM_GreedySetCover(benchmark::State& state) {
  const auto inst = random_cover(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(0)) / 2,
                                 0.05, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::greedy_weighted_set_cover(inst));
  }
}
BENCHMARK(BM_GreedySetCover)->Arg(64)->Arg(512)->Arg(4096);

/// CSR construction from a pre-generated edge list: items/sec should stay
/// flat as n grows (linear counting-sort build — the old representation's
/// per-insertion O(deg) duplicate probe made this superlinear).
void BM_WeightedGraphBuild(benchmark::State& state) {
  util::Rng rng(7);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> weights;
  for (std::size_t v = 0; v < n; ++v) weights.push_back(rng.uniform(1, 10));
  // ~4n distinct edges sampled directly (a density sweep would be O(n^2)).
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t e = 0; e < 4 * n; ++e) {
    const auto u = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (u < v) edges.emplace_back(u, v);
    if (v < u) edges.emplace_back(v, u);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (auto _ : state) {
    graph::WeightedGraphBuilder b(weights);
    for (const auto& [u, v] : edges) b.add_edge(u, v);
    benchmark::DoNotOptimize(b.build());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_WeightedGraphBuild)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_ConflictGraphBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  trace::SyntheticTraceConfig tc;
  tc.num_requests = n;
  tc.num_data = static_cast<DataId>(n / 2);
  tc.mean_rate = 35.0;
  const auto t = trace::make_synthetic_trace(tc);
  placement::ZipfPlacementConfig pc;
  pc.num_disks = 60;
  pc.num_data = static_cast<DataId>(n / 2);
  pc.replication_factor = 3;
  const auto placement = placement::make_zipf_placement(pc);
  const disk::DiskPowerParams power;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_conflict_graph(t, placement, power, {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ConflictGraphBuild)->Arg(2000)->Arg(10000)->Arg(100000);

void BM_SolveGwminConflict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  trace::SyntheticTraceConfig tc;
  tc.num_requests = n;
  tc.num_data = static_cast<DataId>(n / 2);
  tc.mean_rate = 35.0;
  const auto t = trace::make_synthetic_trace(tc);
  placement::ZipfPlacementConfig pc;
  pc.num_disks = 60;
  pc.num_data = static_cast<DataId>(n / 2);
  pc.replication_factor = 3;
  const auto placement = placement::make_zipf_placement(pc);
  const auto built =
      core::build_conflict_graph(t, placement, disk::DiskPowerParams{}, {});
  core::GwminWorkspace ws;
  std::vector<std::uint32_t> selected;
  for (auto _ : state) {
    // The solve consumes the graph's degrees, so each iteration solves a
    // fresh copy, made outside the timed region.
    state.PauseTiming();
    auto g = built;
    state.ResumeTiming();
    core::solve_gwmin_in_place(g, /*use_gwmin2=*/false, ws, selected);
    benchmark::DoNotOptimize(selected.data());
  }
}
BENCHMARK(BM_SolveGwminConflict)->Arg(2000)->Arg(10000)->Arg(100000);

struct RefineInput {
  trace::Trace trace;
  placement::PlacementMap placement;
  core::OfflineAssignment seed;
};

/// A Cello-like trace on the §4.2 placement (180 disks, rf 3) and its
/// unrefined horizon-4 seed of the given kind.
RefineInput make_refine_input(core::MwisOptions::Seed kind, std::size_t n) {
  trace::SyntheticTraceConfig tc = trace::cello_like_config(1);
  tc.num_requests = n;
  placement::ZipfPlacementConfig pc;
  pc.num_data = 32768;
  RefineInput in{trace::make_synthetic_trace(tc),
                 placement::make_zipf_placement(pc), {}};
  core::MwisOptions opts;
  opts.graph.successor_horizon = 4;
  opts.refine_passes = 0;  // the scheduler returns the unrefined seed
  opts.seed = kind;
  core::MwisOfflineScheduler sched(opts);
  in.seed = sched.schedule(in.trace, in.placement, {});
  return in;
}

/// One refinement call as the offline MWIS cell makes it (8 passes). The
/// input is built once per (seed kind, size) and the seed copied into each
/// iteration; the workspace stays warm across iterations, as the
/// scheduler's does across its two calls.
void BM_RefineOffline(benchmark::State& state, core::MwisOptions::Seed kind) {
  static std::map<std::pair<int, std::int64_t>, RefineInput> cache;
  const std::int64_t n = state.range(0);
  const auto key = std::make_pair(static_cast<int>(kind), n);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const auto size = static_cast<std::size_t>(n);
    it = cache.emplace(key, make_refine_input(kind, size)).first;
  }
  const RefineInput& in = it->second;
  core::RefineWorkspace ws;
  for (auto _ : state) {
    core::OfflineAssignment a = in.seed;
    benchmark::DoNotOptimize(core::refine_offline_assignment(
        a, in.trace, in.placement, {}, 8, ws));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK_CAPTURE(BM_RefineOffline, solver,
                  core::MwisOptions::Seed::kSolverOnly)
    ->Arg(10000)
    ->Arg(100000);
BENCHMARK_CAPTURE(BM_RefineOffline, pile, core::MwisOptions::Seed::kPileOnly)
    ->Arg(10000)
    ->Arg(100000);

void BM_ZipfSample(benchmark::State& state) {
  util::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 0.9);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(180)->Arg(32768);

/// RunResult::to_json's response read: the mean and p50/p90/p99/max of a
/// fresh, never-queried store of duplicate-heavy samples (2,000 distinct
/// millisecond values, like quantised service times). The copy that makes
/// each iteration's store fresh is not timed.
void BM_ResponseQuantiles(benchmark::State& state) {
  util::Rng rng(29);
  stats::SampleStore samples;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    samples.add(1e-3 * static_cast<double>(rng.next_below(2000)));
  }
  constexpr double kQs[] = {0.5, 0.90, 0.99, 1.0};
  double out[std::size(kQs)] = {};
  for (auto _ : state) {
    state.PauseTiming();
    stats::SampleStore fresh = samples;
    state.ResumeTiming();
    benchmark::DoNotOptimize(fresh.mean());
    fresh.quantiles(kQs, out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ResponseQuantiles)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
