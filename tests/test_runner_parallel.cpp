// The SweepRunner's core contracts: bit-identical results regardless of
// thread count, registry round-trip against hand-built scheduler stacks
// (the former bench run_* free functions), failure propagation and
// cancellation, shared-input caching, and the builder/name-table APIs.
// These tests carry the sweep-smoke ctest label and run under the tsan
// preset.
#include <gtest/gtest.h>

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/basic_schedulers.hpp"
#include "core/cost_scheduler.hpp"
#include "core/mwis_scheduler.hpp"
#include "core/write_offload.hpp"
#include "core/wsc_scheduler.hpp"
#include "power/fixed_threshold.hpp"
#include "runner/emit.hpp"
#include "runner/sweep.hpp"
#include "trace/synthetic.hpp"
#include "util/check.hpp"

namespace eas {
namespace {

// Small enough to keep the suite fast, large enough that the schedulers make
// non-trivial decisions (spin-ups, queueing, batching).
constexpr std::size_t kRequests = 2000;

runner::ExperimentParams small_params(unsigned rf = 3) {
  return runner::ExperimentBuilder(runner::Workload::kCello)
      .requests(kRequests)
      .replication(rf)
      .build();
}

void expect_identical(const storage::RunResult& a, const storage::RunResult& b,
                      const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.scheduler_name, b.scheduler_name);
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.horizon, b.horizon);  // bitwise, not approximate
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.requests_waited_spinup, b.requests_waited_spinup);
  EXPECT_EQ(a.total_energy(), b.total_energy());
  EXPECT_EQ(a.total_spin_ups(), b.total_spin_ups());
  EXPECT_EQ(a.total_spin_downs(), b.total_spin_downs());
  EXPECT_EQ(a.response_times.count(), b.response_times.count());
  if (!a.response_times.empty() && !b.response_times.empty()) {
    EXPECT_EQ(a.response_times.mean(), b.response_times.mean());
    EXPECT_EQ(a.response_times.sorted(), b.response_times.sorted());
  }
  ASSERT_EQ(a.disk_stats.size(), b.disk_stats.size());
  for (std::size_t d = 0; d < a.disk_stats.size(); ++d) {
    EXPECT_EQ(a.disk_stats[d].seconds_in_state, b.disk_stats[d].seconds_in_state);
    EXPECT_EQ(a.disk_stats[d].joules_in_state, b.disk_stats[d].joules_in_state);
    EXPECT_EQ(a.disk_stats[d].spin_ups, b.disk_stats[d].spin_ups);
    EXPECT_EQ(a.disk_stats[d].spin_downs, b.disk_stats[d].spin_downs);
    EXPECT_EQ(a.disk_stats[d].requests_served, b.disk_stats[d].requests_served);
  }
}

// --- determinism across thread counts --------------------------------------

TEST(SweepRunnerParallel, BitIdenticalAcrossThreadCounts) {
  const auto base = small_params();
  const std::vector<std::string> schedulers = {"random", "static", "heuristic",
                                               "wsc", "mwis"};
  const auto grid = [&] {
    return runner::product_grid(
        base, schedulers, {"1", "3"},
        [](const runner::ExperimentParams& b, const std::string& tag) {
          return runner::ExperimentBuilder(b)
              .replication(static_cast<unsigned>(std::stoul(tag)))
              .build();
        });
  };

  // Serial reference, straight through run_cell with no pool involved.
  std::vector<storage::RunResult> reference;
  {
    auto cells = grid();
    for (const auto& cell : cells) {
      const auto trace = runner::make_shared_workload(cell.params);
      const auto placement = runner::make_shared_placement(cell.params);
      reference.push_back(run_cell(runner::SchedulerRegistry::global(),
                                   cell.scheduler, cell.params, *trace,
                                   *placement));
    }
  }

  for (std::size_t threads : {1u, 2u, 8u}) {
    runner::SweepOptions opts;
    opts.threads = threads;
    const auto results = runner::SweepRunner(opts).run(grid());
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].status, runner::CellStatus::kOk);
      EXPECT_EQ(results[i].index, i);
      EXPECT_GE(results[i].wall_seconds, 0.0);
      expect_identical(results[i].result, reference[i],
                       results[i].spec.scheduler + "/rf" +
                           results[i].spec.tag + " @" +
                           std::to_string(threads) + " threads");
    }
  }
}

// --- kernel regression golden ----------------------------------------------
//
// End-to-end outputs recorded from the pre-rewrite event kernel (hash-map
// handle registry + std::function callbacks + lazily-cleaned binary heap)
// on this exact cell. The slot-pool/indexed-heap kernel must reproduce them
// bit-for-bit: the rewrite changes the heap's internal layout but not the
// (time, seq) total order, so any drift here is an ordering bug, not noise.
TEST(KernelGolden, SlotPoolKernelMatchesPreRewriteResults) {
  const auto p = small_params();  // cello, 2000 requests, rf=3
  const auto trace = runner::make_shared_workload(p);
  const auto placement = runner::make_shared_placement(p);
  const auto& reg = runner::SchedulerRegistry::global();

  const auto wsc = run_cell(reg, "wsc", p, *trace, *placement);
  EXPECT_EQ(wsc.total_energy(), 130283.2136638177);
  EXPECT_EQ(wsc.total_spin_ups(), 181u);
  EXPECT_EQ(wsc.requests_waited_spinup, 325u);
  EXPECT_EQ(wsc.response_times.mean(), 1.5632743452818472);

  const auto heuristic = run_cell(reg, "heuristic", p, *trace, *placement);
  EXPECT_EQ(heuristic.total_energy(), 131751.42789423512);
  EXPECT_EQ(heuristic.total_spin_ups(), 181u);
  EXPECT_EQ(heuristic.requests_waited_spinup, 301u);
  EXPECT_EQ(heuristic.response_times.mean(), 1.3938358852147847);
}

/// FNV-1a over the full result JSON (per-disk stats included) and the bits
/// of every sorted response sample: one value that moves if any counter,
/// joule or latency of the run does.
std::uint64_t fingerprint(const storage::RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  const std::string json = r.to_json(true);
  mix(json.data(), json.size());
  for (const double v : r.response_times.sorted()) mix(&v, sizeof v);
  return h;
}

// The remaining entry points, recorded before arrivals moved from one
// pre-scheduled event per record to the kernel's arrival lane: the offline
// oracle driver, the batch and online drivers under every tier at once, and
// the write-offload driver. Each must reproduce its pre-streaming result bit
// for bit.
TEST(KernelGolden, OfflineMwisMatchesPreStreamingResults) {
  const auto p = small_params();
  const auto trace = runner::make_shared_workload(p);
  const auto placement = runner::make_shared_placement(p);
  const auto mwis = run_cell(runner::SchedulerRegistry::global(), "mwis", p,
                             *trace, *placement);
  EXPECT_EQ(mwis.total_energy(), 88237.874986428898);
  EXPECT_EQ(mwis.total_spin_ups(), 103u);
  EXPECT_EQ(mwis.response_times.mean(), 0.34079870249986505);
  EXPECT_EQ(fingerprint(mwis), 10416622678774624696ULL);
}

trace::Trace all_tiers_trace() {
  trace::SyntheticTraceConfig tc = trace::financial_like_config(1);
  tc.num_requests = kRequests;
  tc.write_fraction = 0.3;
  return trace::make_synthetic_trace(tc);
}

/// Cache, reliability and a repaired disk failure on the financial trace.
/// The trace spans ~44 s: disk 7 fails a quarter of the way in and is back
/// (and rebuilding) at the halfway mark, so the run sees failover, rebuild
/// and repair.
runner::ExperimentBuilder all_tiers_builder() {
  cache::CacheConfig cc;
  cc.capacity_blocks = 256;
  cc.dirty_capacity_blocks = 64;
  reliability::ReliabilityConfig rc;
  rc.deadline_seconds = 5.0;
  rc.max_attempts = 3;
  rc.hedge_delay_seconds = 0.5;
  rc.max_queue_depth = 16;
  runner::ExperimentBuilder b(small_params());
  b.workload(runner::Workload::kFinancial)
      .cache(cc)
      .reliability(rc)
      .fail_disk_at(7, 11.0, 11.0);
  return b;
}

TEST(KernelGolden, AllTiersWithDiskFailureMatchPreStreamingResults) {
  const trace::Trace trace = all_tiers_trace();
  const auto p = all_tiers_builder().build();
  const auto placement = runner::make_shared_placement(p);
  const auto& reg = runner::SchedulerRegistry::global();

  const auto heuristic = run_cell(reg, "heuristic", p, trace, *placement);
  EXPECT_EQ(heuristic.total_energy(), 816527.1406194336);
  EXPECT_EQ(heuristic.total_spin_ups(), 489u);
  EXPECT_EQ(heuristic.fault_stats.failovers, 16u);
  EXPECT_EQ(heuristic.reliability_stats.hedges_issued, 361u);
  EXPECT_EQ(heuristic.cache_stats.writes_buffered, 565u);
  EXPECT_EQ(fingerprint(heuristic), 14995365288922374418ULL);

  const auto wsc = run_cell(reg, "wsc", p, trace, *placement);
  EXPECT_EQ(wsc.total_energy(), 822996.47716261423);
  EXPECT_EQ(wsc.total_spin_ups(), 493u);
  EXPECT_EQ(wsc.fault_stats.failovers, 15u);
  EXPECT_EQ(wsc.reliability_stats.hedges_issued, 364u);
  EXPECT_EQ(fingerprint(wsc), 10740754269308316428ULL);
}

const char* const kAllTiersMetricsGolden =
    R"({"requests_completed":{"kind":"counter","value":1988},)"
    R"("requests_waited_spinup":{"kind":"counter","value":195},)"
    R"("failovers":{"kind":"counter","value":16},)"
    R"("unavailable_requests":{"kind":"counter","value":0},)"
    R"("batches_formed":{"kind":"counter","value":0},)"
    R"("batch_size":{"kind":"summary","count":0},)"
    R"("queue_depth":{"kind":"summary","count":2987,)"
    R"("mean":1.870103783059925,"min":1,"max":24},)"
    R"("response_seconds":{"kind":"histogram","total":1988,"bins":[[0,935],)"
    R"([19,768],[20,1],[21,1],[29,1],[32,3],[34,2],[35,4],[37,36],[38,2],)"
    R"([39,4],[40,1],[41,4],[42,4],[43,7],[44,13],[45,10],[46,18],[47,64],)"
    R"([48,30],[49,42],[50,38]]},"spin_ups":{"kind":"counter","value":489},)"
    R"("spin_downs":{"kind":"counter","value":489},)"
    R"("total_energy_joules":{"kind":"gauge","value":816527.1406194336},)"
    R"("energy_per_request_joules":{"kind":"gauge",)"
    R"("value":410.72793793734087},)"
    R"("disk_seconds_standby":{"kind":"summary","count":180,)"
    R"("mean":3144.033342595073,"min":3.844469064659398,)"
    R"("max":3318.3079449037837},"disk_seconds_spin-up":{"kind":"summary",)"
    R"("count":180,"mean":27.16666666666668,"min":0,"max":370},)"
    R"("disk_seconds_idle":{"kind":"summary","count":180,)"
    R"("mean":133.25848322782338,"min":0,"max":3283.398518847155},)"
    R"("disk_seconds_active":{"kind":"summary","count":180,)"
    R"("mean":0.26611908088853914,"min":0,"max":16.06495699196895},)"
    R"("disk_seconds_spin-down":{"kind":"summary","count":180,)"
    R"("mean":13.58333333333334,"min":0,"max":185.00000000000006},)"
    R"("cache_hits":{"kind":"counter","value":370},)"
    R"("cache_misses":{"kind":"counter","value":1040},)"
    R"("cache_writes_buffered":{"kind":"counter","value":565},)"
    R"("destage_batches":{"kind":"counter","value":506},)"
    R"("destaged_blocks":{"kind":"counter","value":543},)"
    R"("dirty_occupancy":{"kind":"summary","count":1096,)"
    R"("mean":17.058394160583926,"min":0,"max":64},)"
    R"("cache_hit_ratio":{"kind":"gauge","value":0.2624113475177305},)"
    R"("cache_memory_energy_joules":{"kind":"gauge",)"
    R"("value":194.43210614670608},"deadline_misses":{"kind":"counter",)"
    R"("value":222},"retries":{"kind":"counter","value":199},)"
    R"("hedges_issued":{"kind":"counter","value":361},)"
    R"("hedge_wins":{"kind":"counter","value":132},)"
    R"("shed_requests":{"kind":"counter","value":12},)"
    R"("abandoned_requests":{"kind":"counter","value":0}})";

// The all-tiers heuristic cell's metric registry, recorded before the tier
// counters moved from live increments to one publication at the end of the
// run. Every counter, summary and histogram must come out byte-identical.
// One value has moved since, on purpose: the dirty_occupancy mean. This cell
// re-puts blocks whose destage is in flight and destages them again, and a
// superseded write landing first used to free the slot the newer write still
// held; WriteBackBuffer::complete now matches the destage id, so the slot
// stays counted until the newer write lands (the 1,096 samples sum 4 higher).
TEST(KernelGolden, AllTiersMetricsJsonIsStable) {
  const trace::Trace trace = all_tiers_trace();
  const auto p = all_tiers_builder().metrics().build();
  const auto placement = runner::make_shared_placement(p);
  const auto r = run_cell(runner::SchedulerRegistry::global(), "heuristic", p,
                          trace, *placement);
  ASSERT_NE(r.metrics, nullptr);
  EXPECT_EQ(r.metrics->to_json(), kAllTiersMetricsGolden);
}

TEST(KernelGolden, WriteOffloadMatchesPreStreamingResults) {
  const auto p = small_params();
  trace::SyntheticTraceConfig tc = trace::cello_like_config(p.trace_seed);
  tc.num_requests = kRequests;
  tc.write_fraction = 0.3;
  const trace::Trace trace = trace::make_synthetic_trace(tc);
  const auto placement = runner::make_placement(p);
  core::CostFunctionScheduler sched(p.cost);
  power::FixedThresholdPolicy policy;
  core::WriteOffloadOptions opts;
  opts.enabled = true;
  opts.cost = p.cost;
  core::WriteOffloadManager offloader(opts);
  const auto r = storage::run_online_mixed(runner::system_config_for(p),
                                           placement, trace, sched, policy,
                                           offloader);
  EXPECT_EQ(r.total_energy(), 119652.85445100725);
  EXPECT_EQ(r.total_spin_ups(), 162u);
  EXPECT_EQ(r.write_offload_stats.writes_diverted, 96u);
  EXPECT_EQ(fingerprint(r), 9216418568620372620ULL);
}

TEST(SweepRunnerParallel, SharedInputsAreCachedAcrossCells) {
  const auto base = small_params();
  auto cells = runner::product_grid(base, {"static", "random"}, {"x"}, nullptr);
  runner::SweepOptions opts;
  opts.threads = 2;
  const auto results = runner::SweepRunner(opts).run(std::move(cells));
  ASSERT_EQ(results.size(), 2u);
  // Same workload/seed/requests and same placement key ⇒ literally the same
  // immutable objects, not copies.
  EXPECT_EQ(results[0].spec.trace.get(), results[1].spec.trace.get());
  EXPECT_EQ(results[0].spec.placement.get(), results[1].spec.placement.get());
  EXPECT_NE(results[0].spec.trace.get(), nullptr);
}

// --- registry round-trip against the former run_* free functions -----------

TEST(SchedulerRegistry, MatchesHandBuiltSchedulerStacks) {
  const auto p = small_params(2);
  const auto trace =
      runner::make_workload(p.workload, p.trace_seed, p.num_requests);
  const auto placement = runner::make_placement(p);
  const auto config = runner::system_config_for(p);
  const auto& reg = runner::SchedulerRegistry::global();

  expect_identical(run_cell(reg, "always-on", p, trace, placement),
                   storage::run_always_on(config, placement, trace),
                   "always-on");
  {
    core::RandomScheduler sched(p.trace_seed ^ 0x5eedULL);
    power::FixedThresholdPolicy policy;
    expect_identical(run_cell(reg, "random", p, trace, placement),
                     storage::run_online(config, placement, trace, sched,
                                         policy),
                     "random");
  }
  {
    core::StaticScheduler sched;
    power::FixedThresholdPolicy policy;
    expect_identical(run_cell(reg, "static", p, trace, placement),
                     storage::run_online(config, placement, trace, sched,
                                         policy),
                     "static");
  }
  {
    core::CostFunctionScheduler sched(p.cost);
    power::FixedThresholdPolicy policy;
    expect_identical(run_cell(reg, "heuristic", p, trace, placement),
                     storage::run_online(config, placement, trace, sched,
                                         policy),
                     "heuristic");
  }
  {
    core::WscBatchScheduler sched(p.batch_interval, p.cost);
    power::FixedThresholdPolicy policy;
    expect_identical(run_cell(reg, "wsc", p, trace, placement),
                     storage::run_batch(config, placement, trace, sched,
                                        policy),
                     "wsc");
  }
  {
    core::MwisOptions opts;
    opts.algorithm = core::MwisOptions::Algorithm::kGwmin;
    opts.graph.successor_horizon = p.mwis_horizon;
    opts.refine_passes = p.mwis_refine_passes;
    core::MwisOfflineScheduler sched(opts);
    const auto assignment = sched.schedule(trace, placement, config.power);
    expect_identical(run_cell(reg, "mwis", p, trace, placement),
                     storage::run_offline(config, placement, trace, assignment,
                                          sched.name()),
                     "mwis");
  }
}

TEST(SchedulerRegistry, RosterOrderAndLookup) {
  const auto& reg = runner::SchedulerRegistry::global();
  const std::vector<std::string> expected = {"always-on", "random", "static",
                                             "heuristic", "wsc", "mwis"};
  EXPECT_EQ(reg.names(), expected);
  EXPECT_TRUE(reg.contains("wsc"));
  EXPECT_FALSE(reg.contains("nonsense"));
  EXPECT_THROW(reg.at("nonsense"), InvariantError);
}

TEST(SchedulerRegistry, RejectsDuplicateAndMalformedSpecs) {
  auto reg = runner::SchedulerRegistry::paper_roster();
  runner::SchedulerSpec dup;
  dup.name = "static";
  dup.make = [](const runner::ExperimentParams&,
                const placement::PlacementMap&) {
    return runner::SchedulerBundle{};
  };
  EXPECT_THROW(reg.add(dup), InvariantError);
  runner::SchedulerSpec unnamed = dup;
  unnamed.name.clear();
  EXPECT_THROW(reg.add(unnamed), InvariantError);
  runner::SchedulerSpec no_factory;
  no_factory.name = "hollow";
  EXPECT_THROW(reg.add(no_factory), InvariantError);
}

TEST(SchedulerRegistry, AcceptsBenchLocalExtensions) {
  auto reg = runner::SchedulerRegistry::paper_roster();
  runner::SchedulerSpec eager;
  eager.name = "heuristic-eager";
  eager.make = [](const runner::ExperimentParams& p,
                  const placement::PlacementMap&) {
    runner::SchedulerBundle b;
    b.online = std::make_unique<core::CostFunctionScheduler>(p.cost);
    b.policy = std::make_unique<power::FixedThresholdPolicy>(1.0);
    return b;
  };
  reg.add(std::move(eager));
  EXPECT_EQ(reg.size(), 7u);

  const auto p = runner::ExperimentBuilder(runner::Workload::kCello)
                     .requests(300)
                     .disks(12)
                     .replication(2)
                     .build();
  const auto trace =
      runner::make_workload(p.workload, p.trace_seed, p.num_requests);
  const auto placement = runner::make_placement(p);
  const auto r = run_cell(reg, "heuristic-eager", p, trace, placement);
  EXPECT_EQ(r.total_requests, p.num_requests);
}

// --- run_cell's bundle dispatch ---------------------------------------------

/// A spec named `name` whose factory returns what `fill` sets.
runner::SchedulerSpec bundle_spec(
    std::string name, std::function<void(runner::SchedulerBundle&)> fill) {
  runner::SchedulerSpec spec;
  spec.name = std::move(name);
  spec.make = [fill](const runner::ExperimentParams&,
                     const placement::PlacementMap&) {
    runner::SchedulerBundle b;
    fill(b);
    return b;
  };
  return spec;
}

TEST(RunCellDispatch, MalformedBundlesAreRejectedWithTheSpecName) {
  const auto p = runner::ExperimentBuilder(runner::Workload::kCello)
                     .requests(50)
                     .disks(6)
                     .replication(2)
                     .build();
  const auto trace =
      runner::make_workload(p.workload, p.trace_seed, p.num_requests);
  const auto placement = runner::make_placement(p);
  auto online = [](runner::SchedulerBundle& b) {
    b.online = std::make_unique<core::StaticScheduler>();
  };
  auto batch = [](runner::SchedulerBundle& b) {
    b.batch = std::make_unique<core::WscBatchScheduler>(0.1);
  };
  auto policy = [](runner::SchedulerBundle& b) {
    b.policy = std::make_unique<power::FixedThresholdPolicy>();
  };
  auto offload = [](runner::SchedulerBundle& b) {
    b.offload = std::make_unique<core::WriteOffloadManager>();
  };
  using Fill = std::function<void(runner::SchedulerBundle&)>;
  const std::vector<std::pair<std::string, std::vector<Fill>>> cases = {
      {"two-schedulers", {online, batch, policy}},
      {"online-and-offline",
       {online, policy,
        [](runner::SchedulerBundle& b) {
          b.offline = std::make_unique<core::StaticScheduler>();
        }}},
      {"online-without-policy", {online}},
      {"batch-without-policy", {batch}},
      {"offload-without-online", {batch, policy, offload}},
      {"lone-offload", {offload}},
      {"lone-policy", {policy}},
  };
  for (const auto& [name, fills] : cases) {
    SCOPED_TRACE(name);
    const auto spec = bundle_spec(name, [&fills](runner::SchedulerBundle& b) {
      for (const Fill& f : fills) f(b);
    });
    try {
      run_cell(spec, p, trace, placement);
      ADD_FAILURE() << "malformed bundle ran";
    } catch (const InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + name + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RunCellDispatch, OffloadSpecMatchesADirectMixedRun) {
  const auto p = runner::ExperimentBuilder(runner::Workload::kCello)
                     .requests(kRequests)
                     .build();
  trace::SyntheticTraceConfig tc = trace::cello_like_config(p.trace_seed);
  tc.num_requests = p.num_requests;
  tc.write_fraction = 0.3;
  const auto trace = trace::make_synthetic_trace(tc);
  const auto placement = runner::make_placement(p);

  const auto spec = bundle_spec("offload", [&p](runner::SchedulerBundle& b) {
    b.online = std::make_unique<core::CostFunctionScheduler>(p.cost);
    b.policy = std::make_unique<power::FixedThresholdPolicy>();
    b.offload = std::make_unique<core::WriteOffloadManager>(
        core::WriteOffloadOptions{.enabled = true, .cost = p.cost});
  });
  const auto via_registry = run_cell(spec, p, trace, placement);

  core::CostFunctionScheduler sched(p.cost);
  power::FixedThresholdPolicy policy;
  core::WriteOffloadManager offloader(
      core::WriteOffloadOptions{.enabled = true, .cost = p.cost});
  const auto direct =
      storage::run_online_mixed(runner::system_config_for(p), placement,
                                trace, sched, policy, offloader);
  EXPECT_GT(direct.write_offload_stats.writes_diverted, 0u);
  EXPECT_EQ(via_registry.to_json(true), direct.to_json(true));
}

// --- failure propagation and cancellation -----------------------------------

/// The paper roster plus "exploding", whose factory throws.
const runner::SchedulerRegistry& failure_registry() {
  static const runner::SchedulerRegistry registry = [] {
    auto r = runner::SchedulerRegistry::paper_roster();
    r.add({"exploding", "factory throws",
           [](const runner::ExperimentParams&,
              const placement::PlacementMap&) -> runner::SchedulerBundle {
             throw std::runtime_error("cell exploded");
           }});
    return r;
  }();
  return registry;
}

/// `n` tiny "static" cells; the one at `failing_index` is "exploding".
std::vector<runner::CellSpec> failing_grid(std::size_t n,
                                           std::size_t failing_index) {
  const auto p = runner::ExperimentBuilder(runner::Workload::kCello)
                     .requests(10)
                     .disks(4)
                     .replication(1)
                     .build();
  std::vector<runner::CellSpec> cells;
  for (std::size_t i = 0; i < n; ++i) {
    runner::CellSpec cell;
    cell.scheduler = i == failing_index ? "exploding" : "static";
    cell.params = p;
    cell.tag = std::to_string(i);
    cells.push_back(std::move(cell));
  }
  return cells;
}

TEST(SweepRunnerFailure, FirstFailureCancelsRemainingCells) {
  runner::SweepOptions opts;
  opts.threads = 1;  // deterministic ordering: cell 0 fails before 1..3 start
  opts.rethrow_failure = false;
  const auto results =
      runner::SweepRunner(failure_registry(), opts).run(failing_grid(4, 0));
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].status, runner::CellStatus::kFailed);
  EXPECT_NE(results[0].error.find("cell exploded"), std::string::npos);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, runner::CellStatus::kSkipped);
  }
}

TEST(SweepRunnerFailure, RethrowsFirstFailureByDefault) {
  runner::SweepOptions opts;
  opts.threads = 2;
  EXPECT_THROW(
      runner::SweepRunner(failure_registry(), opts).run(failing_grid(3, 1)),
      std::runtime_error);
}

TEST(SweepRunnerFailure, CancelOffRunsEveryCell) {
  runner::SweepOptions opts;
  opts.threads = 1;
  opts.cancel_on_failure = false;
  opts.rethrow_failure = false;
  const auto results =
      runner::SweepRunner(failure_registry(), opts).run(failing_grid(4, 0));
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].status, runner::CellStatus::kFailed);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, runner::CellStatus::kOk);
    EXPECT_EQ(results[i].result.total_requests, 10u);
  }
}

TEST(SweepRunnerFailure, MisdeclaredGridFailsBeforeRunning) {
  auto cells = failing_grid(2, 99);  // no exploding cell...
  cells[1].scheduler = "no-such-scheduler";  // ...but an unknown registry row
  runner::SweepOptions opts;
  opts.threads = 1;
  EXPECT_THROW(
      runner::SweepRunner(failure_registry(), opts).run(std::move(cells)),
      InvariantError);
}

TEST(SweepRunner, EmptyGridIsANoOp) {
  EXPECT_TRUE(runner::SweepRunner().run({}).empty());
}

// --- find_cell / builder / name-table edges ---------------------------------

TEST(SweepRunner, FindCellThrowsOnUnknownKey) {
  runner::SweepOptions opts;
  opts.threads = 1;
  opts.rethrow_failure = false;
  const auto results =
      runner::SweepRunner(failure_registry(), opts).run(failing_grid(2, 99));
  EXPECT_EQ(&runner::find_cell(results, "1", "static").spec.tag,
            &results[1].spec.tag);
  EXPECT_THROW(runner::find_cell(results, "7", "static"), InvariantError);
}

TEST(ExperimentBuilder, ValidatesOnBuild) {
  EXPECT_THROW(runner::ExperimentBuilder().requests(0).build(),
               InvariantError);
  EXPECT_THROW(runner::ExperimentBuilder().replication(0).build(),
               InvariantError);
  EXPECT_THROW(
      runner::ExperimentBuilder().disks(4).replication(5).build(),
      InvariantError);
  EXPECT_THROW(runner::ExperimentBuilder().zipf_z(1.5).build(),
               InvariantError);
  EXPECT_THROW(runner::ExperimentBuilder().batch_interval(0.0).build(),
               InvariantError);
  EXPECT_THROW(runner::ExperimentBuilder().alpha(-0.1).build(),
               InvariantError);
  EXPECT_THROW(runner::ExperimentBuilder().mwis(0, 1).build(),
               InvariantError);
  const auto p = runner::ExperimentBuilder(runner::Workload::kFinancial)
                     .replication(5)
                     .zipf_z(0.0)
                     .build();
  EXPECT_EQ(p.workload, runner::Workload::kFinancial);
  EXPECT_EQ(p.replication_factor, 5u);
}

// --- merged metrics determinism ---------------------------------------------
//
// Each cell owns a thread-confined MetricRegistry; merged_metrics folds them
// in cell-index order after the sweep. The combined JSON must therefore be
// bit-identical no matter how many workers executed the grid.
TEST(SweepRunnerParallel, MergedMetricsAreIdenticalAcrossThreadCounts) {
  const auto base = runner::ExperimentBuilder(runner::Workload::kCello)
                        .requests(kRequests)
                        .metrics()
                        .build();
  const auto grid = [&] {
    return runner::product_grid(
        base, {"static", "heuristic", "wsc"}, {"1", "3"},
        [](const runner::ExperimentParams& b, const std::string& tag) {
          return runner::ExperimentBuilder(b)
              .replication(static_cast<unsigned>(std::stoul(tag)))
              .build();
        });
  };

  std::string reference;
  for (std::size_t threads : {1u, 2u, 8u}) {
    runner::SweepOptions opts;
    opts.threads = threads;
    const auto results = runner::SweepRunner(opts).run(grid());
    for (const auto& cell : results) {
      ASSERT_EQ(cell.status, runner::CellStatus::kOk);
      ASSERT_NE(cell.result.metrics, nullptr);
      EXPECT_EQ(cell.result.trace_recorder, nullptr);  // tracing not requested
    }
    const std::string json = runner::merged_metrics(results).to_json();
    if (reference.empty()) {
      reference = json;
      // The fold saw every cell: six cells of kRequests completions each.
      std::ostringstream expect_completed;
      expect_completed << "\"requests_completed\":{\"kind\":\"counter\","
                       << "\"value\":" << 6 * kRequests << "}";
      EXPECT_NE(json.find(expect_completed.str()), std::string::npos) << json;
    } else {
      EXPECT_EQ(json, reference) << threads << " threads";
    }
  }
}

// --- merged Chrome trace ----------------------------------------------------
//
// A minimal JSON reader: enough to prove write_chrome_trace's output is
// well-formed and to walk its events. Throws std::runtime_error on anything
// that is not exactly one JSON document.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* find(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view s) : s_(s) {}

  Json document() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string(what) + " at byte " +
                             std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected byte");
    ++pos_;
  }
  // Reads `,` and returns true, or returns false at the closing `close`.
  bool more(char close) {
    if (peek() == close) return false;
    expect(',');
    return true;
  }

  Json value() {
    Json v;
    const char c = peek();
    if (c == '{') {
      v.kind = Json::Kind::kObject;
      ++pos_;
      if (peek() != '}') {
        do {
          std::string key = string();
          expect(':');
          v.fields.emplace_back(std::move(key), value());
        } while (more('}'));
      }
      expect('}');
    } else if (c == '[') {
      v.kind = Json::Kind::kArray;
      ++pos_;
      if (peek() != ']') {
        do {
          v.items.push_back(value());
        } while (more(']'));
      }
      expect(']');
    } else if (c == '"') {
      v.kind = Json::Kind::kString;
      v.text = string();
    } else if (literal("true") || literal("false")) {
      v.kind = Json::Kind::kBool;
    } else if (literal("null")) {
      v.kind = Json::Kind::kNull;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      v.kind = Json::Kind::kNumber;
      const auto [end, ec] =
          std::from_chars(s_.data() + pos_, s_.data() + s_.size(), v.number);
      if (ec != std::errc{}) fail("bad number");
      pos_ = static_cast<std::size_t>(end - s_.data());
    } else {
      fail("unexpected byte");
    }
    return v;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control byte");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      if (e == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_) {
          if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(
                                       s_[pos_]))) {
            fail("bad \\u escape");
          }
        }
        out.push_back('?');  // code point not needed by these checks
      } else if (std::string_view("\"\\/bfnrt").find(e) !=
                 std::string_view::npos) {
        out.push_back(e);
      } else {
        fail("bad escape");
      }
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

TEST(SweepTraceExport, OneProcessPerTracedOkCell) {
  const auto untraced = runner::ExperimentBuilder(runner::Workload::kCello)
                            .requests(500)
                            .disks(12)
                            .build();
  const auto traced = runner::ExperimentBuilder(untraced)
                          .trace({.capacity = 1u << 12})
                          .build();
  auto cell = [](const char* sched, const runner::ExperimentParams& p,
                 const char* tag) {
    runner::CellSpec c;
    c.scheduler = sched;
    c.params = p;
    c.tag = tag;
    return c;
  };
  std::vector<runner::CellSpec> cells = {
      cell("static", traced, "a"),       // 0: traced
      cell("heuristic", untraced, "a"),  // 1: tracing off
      cell("exploding", traced, "b"),    // 2: fails
      cell("wsc", traced, "b"),          // 3: traced
  };
  runner::SweepOptions opts;
  opts.threads = 2;
  opts.cancel_on_failure = false;
  opts.rethrow_failure = false;
  const auto results =
      runner::SweepRunner(failure_registry(), opts).run(std::move(cells));
  ASSERT_EQ(results[2].status, runner::CellStatus::kFailed);
  EXPECT_EQ(results[1].result.trace_recorder, nullptr);

  std::ostringstream os;
  runner::write_chrome_trace(os, results);
  const Json doc = JsonReader(os.str()).document();
  ASSERT_EQ(doc.kind, Json::Kind::kObject);
  const Json* unit = doc.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->text, "ms");
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, Json::Kind::kArray);

  std::map<int, std::size_t> events_per_pid;
  std::map<int, std::vector<std::string>> process_names;
  for (const Json& e : events->items) {
    const Json* pid = e.find("pid");
    ASSERT_NE(pid, nullptr);
    const int id = static_cast<int>(pid->number);
    ++events_per_pid[id];
    const Json* ph = e.find("ph");
    const Json* name = e.find("name");
    ASSERT_TRUE(ph != nullptr && name != nullptr);
    if (ph->text == "M" && name->text == "process_name") {
      const Json* args = e.find("args");
      ASSERT_TRUE(args != nullptr && args->find("name") != nullptr);
      process_names[id].push_back(args->find("name")->text);
    }
  }
  EXPECT_EQ(events_per_pid.size(), 2u);
  EXPECT_GT(events_per_pid[0], 1u);  // more than the metadata alone
  EXPECT_GT(events_per_pid[3], 1u);
  const std::map<int, std::vector<std::string>> expected = {
      {0, {"a/static"}}, {3, {"b/wsc"}}};
  EXPECT_EQ(process_names, expected);
}

TEST(SweepTraceExport, EmptySweepExportsEmptyArtifacts) {
  EXPECT_EQ(runner::merged_metrics({}).to_json(), "{}");
  std::ostringstream os;
  runner::write_chrome_trace(os, {});
  EXPECT_EQ(os.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
}

TEST(WorkloadNames, RoundTripThroughTheCanonicalTable) {
  for (const auto w : runner::kAllWorkloads) {
    const auto back = runner::workload_from_string(runner::to_string(w));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, w);
  }
  EXPECT_FALSE(runner::workload_from_string("tpc-c").has_value());
}

TEST(ThreadsFromEnv, ParsesAndClampsEAS_THREADS) {
  ::setenv("EAS_THREADS", "3", 1);
  EXPECT_EQ(runner::threads_from_env(), 3u);
  ::setenv("EAS_THREADS", "0", 1);
  EXPECT_GE(runner::threads_from_env(), 1u);
  // strtoull would wrap "-3" to 2^64-3; signs must fall back to the default.
  ::setenv("EAS_THREADS", "-3", 1);
  EXPECT_LE(runner::threads_from_env(), 1024u);
  ::setenv("EAS_THREADS", "garbage", 1);
  EXPECT_GE(runner::threads_from_env(), 1u);
  ::unsetenv("EAS_THREADS");
  EXPECT_GE(runner::threads_from_env(), 1u);
}

}  // namespace
}  // namespace eas
