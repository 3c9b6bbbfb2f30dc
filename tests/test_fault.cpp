// Fault subsystem tests: FailureView semantics, injector determinism, and
// the degraded-mode path end to end under every registered scheduler.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "core/basic_schedulers.hpp"
#include "fault/failure_view.hpp"
#include "fault/injector.hpp"
#include "paper_example.hpp"
#include "power/fixed_threshold.hpp"
#include "power/policy.hpp"
#include "runner/emit.hpp"
#include "runner/experiment.hpp"
#include "runner/registry.hpp"
#include "runner/sweep.hpp"
#include "sim/simulator.hpp"
#include "storage/storage_system.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace eas::fault {
namespace {

// ------------------------------------------------------------ FailureView

TEST(FailureView, StartsHealthyAndTracksHealth) {
  FailureView v(4);
  EXPECT_FALSE(v.degraded());
  for (DiskId k = 0; k < 4; ++k) {
    EXPECT_TRUE(v.disk_up(k));
    EXPECT_TRUE(v.accepts_io(k));
  }
  v.set_health(1.0, 2, DiskHealth::kDown);
  EXPECT_TRUE(v.degraded());
  EXPECT_FALSE(v.disk_up(2));
  EXPECT_FALSE(v.accepts_io(2));
  v.set_health(3.0, 2, DiskHealth::kRebuilding);
  EXPECT_TRUE(v.degraded());       // rebuilding still counts as degraded
  EXPECT_FALSE(v.disk_up(2));      // no foreground reads yet
  EXPECT_TRUE(v.accepts_io(2));    // but rebuild writes may land
  v.set_health(5.0, 2, DiskHealth::kUp);
  EXPECT_FALSE(v.degraded());
}

TEST(FailureView, ReplicaReadableRespectsLostRanges) {
  FailureView v(2);
  v.add_lost_range(0.0, 0, 10, 20);
  EXPECT_TRUE(v.degraded());
  EXPECT_FALSE(v.replica_readable(10, 0));
  EXPECT_FALSE(v.replica_readable(15, 0));
  EXPECT_FALSE(v.replica_readable(20, 0));
  EXPECT_TRUE(v.replica_readable(9, 0));
  EXPECT_TRUE(v.replica_readable(21, 0));
  EXPECT_TRUE(v.replica_readable(15, 1));  // other disk unaffected
  // Overlapping add coalesces; partial clear splits.
  v.add_lost_range(1.0, 0, 18, 30);
  EXPECT_FALSE(v.replica_readable(25, 0));
  v.clear_lost_range(2.0, 0, 12, 22);
  EXPECT_TRUE(v.replica_readable(15, 0));
  EXPECT_FALSE(v.replica_readable(11, 0));
  EXPECT_FALSE(v.replica_readable(25, 0));
  v.clear_lost_range(3.0, 0, 0, 100);
  EXPECT_FALSE(v.has_lost_ranges(0));
  EXPECT_FALSE(v.degraded());
}

TEST(FailureView, LiveLocationsFilterPlacementOrder) {
  const auto pm = testing::example_placement();
  FailureView v(pm.num_disks());
  // b3 (data id 2) lives on disks {0, 1, 3}.
  std::vector<DiskId> out;
  EXPECT_TRUE(v.live_locations(pm, 2, out));
  EXPECT_EQ(out, (std::vector<DiskId>{0, 1, 3}));
  EXPECT_EQ(v.first_live(pm, 2), 0u);
  v.set_health(1.0, 0, DiskHealth::kDown);
  EXPECT_TRUE(v.live_locations(pm, 2, out));
  EXPECT_EQ(out, (std::vector<DiskId>{1, 3}));
  EXPECT_EQ(v.first_live(pm, 2), 1u);
  // b1 (data id 0) lives only on disk 0 -> nothing survives.
  EXPECT_FALSE(v.live_locations(pm, 0, out));
  EXPECT_EQ(v.first_live(pm, 0), kInvalidDisk);
}

TEST(FailureView, DegradedTimeIntegratesEpisodes) {
  FailureView v(3);
  v.set_health(10.0, 0, DiskHealth::kDown);
  v.set_health(12.0, 1, DiskHealth::kDown);  // overlap: still one episode
  v.set_health(20.0, 1, DiskHealth::kUp);
  v.set_health(25.0, 0, DiskHealth::kUp);    // episode 1: [10, 25]
  v.set_health(40.0, 2, DiskHealth::kDown);  // episode 2: [40, horizon]
  const auto [seconds, episodes] = v.finalize_degraded(100.0);
  EXPECT_DOUBLE_EQ(seconds, 15.0 + 60.0);
  EXPECT_EQ(episodes, 2u);
}

TEST(FaultProfile, ValidateRejectsNonsense) {
  FaultProfile p;
  p.mttf_seconds = -1.0;
  EXPECT_THROW(p.validate(4), InvariantError);
  p = {};
  p.weibull_shape = 0.0;
  EXPECT_THROW(p.validate(4), InvariantError);
  p = {};
  ScriptedFault f;
  f.disk = 9;  // outside a 4-disk fleet
  p.script.push_back(f);
  EXPECT_THROW(p.validate(4), InvariantError);
  p = {};
  f = {};
  f.kind = ScriptedFault::Kind::kLatentSector;
  f.data_lo = 10;
  f.data_hi = 5;  // inverted
  p.script.push_back(f);
  EXPECT_THROW(p.validate(4), InvariantError);
}

// ----------------------------------------------------------- FaultInjector

struct TimelineEvent {
  double time;
  DiskId disk;
  int what;  // 0 = down, 1 = back, 2 = blocks lost
  bool operator==(const TimelineEvent&) const = default;
};

std::vector<TimelineEvent> record_timeline(const FaultProfile& profile,
                                           DiskId num_disks, double horizon,
                                           FaultStats* stats_out = nullptr) {
  sim::Simulator sim;
  FailureView view(num_disks);
  FaultInjector inj(sim, view, profile);
  std::vector<TimelineEvent> events;
  inj.set_on_disk_down([&](DiskId k, ScriptedFault::Kind) {
    events.push_back({sim.now(), k, 0});
  });
  inj.set_on_disk_back([&](DiskId k, bool) {
    events.push_back({sim.now(), k, 1});
  });
  inj.set_on_blocks_lost([&](DiskId k, DataId, DataId, double) {
    events.push_back({sim.now(), k, 2});
  });
  inj.start(horizon);
  sim.run();
  if (stats_out) *stats_out = inj.stats();
  return events;
}

TEST(FaultInjector, ScriptedTimelineIsExact) {
  FaultProfile p;
  ScriptedFault fail;
  fail.kind = ScriptedFault::Kind::kFailStop;
  fail.disk = 1;
  fail.time = 5.0;
  fail.duration = 10.0;  // replacement online at t=15
  p.script.push_back(fail);
  ScriptedFault lse;
  lse.kind = ScriptedFault::Kind::kLatentSector;
  lse.disk = 2;
  lse.time = 7.0;
  lse.data_lo = 100;
  lse.data_hi = 200;
  p.script.push_back(lse);
  FaultStats stats;
  const auto events = record_timeline(p, 4, 100.0, &stats);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (TimelineEvent{5.0, 1, 0}));
  EXPECT_EQ(events[1], (TimelineEvent{7.0, 2, 2}));
  EXPECT_EQ(events[2], (TimelineEvent{15.0, 1, 1}));
  EXPECT_EQ(stats.disk_failures, 1u);
  EXPECT_EQ(stats.latent_sector_events, 1u);
  EXPECT_EQ(stats.repairs, 1u);
}

TEST(FaultInjector, ScriptedFaultsBeyondHorizonNeverFire) {
  FaultProfile p;
  ScriptedFault f;
  f.disk = 0;
  f.time = 50.0;
  p.script.push_back(f);
  EXPECT_TRUE(record_timeline(p, 2, 10.0).empty());
}

TEST(FaultInjector, StochasticTimelineIsAPureFunctionOfTheSeed) {
  FaultProfile p;
  p.mttf_seconds = 40.0;
  p.weibull_shape = 1.5;
  p.mttr_seconds = 10.0;
  p.seed = 7;
  const auto a = record_timeline(p, 8, 500.0);
  const auto b = record_timeline(p, 8, 500.0);
  EXPECT_FALSE(a.empty());  // 500 s at MTTF 40 s sees failures w.p. ~1
  EXPECT_EQ(a, b);
  p.seed = 8;
  EXPECT_NE(record_timeline(p, 8, 500.0), a);
}

TEST(FaultInjector, PerDiskStreamsAreIndependent) {
  // Disk k's failure times must not move when the fleet grows: stream k
  // depends only on (seed, k), never on how many other disks exist.
  FaultProfile p;
  p.mttf_seconds = 50.0;
  p.mttr_seconds = 5.0;
  p.seed = 3;
  const auto small = record_timeline(p, 2, 400.0);
  const auto large = record_timeline(p, 6, 400.0);
  std::vector<TimelineEvent> small_d0, large_d0;
  for (const auto& e : small) {
    if (e.disk == 0) small_d0.push_back(e);
  }
  for (const auto& e : large) {
    if (e.disk == 0) large_d0.push_back(e);
  }
  EXPECT_FALSE(small_d0.empty());
  EXPECT_EQ(small_d0, large_d0);
}

TEST(FaultInjector, TransientTimeoutRepairsWithoutRebuild) {
  FaultProfile p;
  ScriptedFault f;
  f.kind = ScriptedFault::Kind::kTransient;
  f.disk = 0;
  f.time = 2.0;
  f.duration = 3.0;
  p.script.push_back(f);
  sim::Simulator sim;
  FailureView view(2);
  FaultInjector inj(sim, view, p);
  bool needed_rebuild = true;
  inj.set_on_disk_back([&](DiskId, bool needs) { needed_rebuild = needs; });
  inj.start(100.0);
  sim.run();
  EXPECT_FALSE(needed_rebuild);
  EXPECT_EQ(inj.stats().transient_timeouts, 1u);
  EXPECT_EQ(inj.stats().disk_failures, 0u);
  EXPECT_EQ(inj.stats().repairs, 1u);
  EXPECT_TRUE(view.disk_up(0));
}

TEST(FaultInjector, WeibullShapeOneIsExponentialWithTheGivenMean) {
  util::Rng rng(42);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = FaultInjector::weibull(rng, 1.0, 30.0);
    ASSERT_GE(x, 0.0);
    ASSERT_TRUE(std::isfinite(x));
    sum += x;
  }
  EXPECT_NEAR(sum / 20000.0, 30.0, 1.0);
}

// ------------------------------------------------- degraded-mode end to end

/// Trace over the paper's six blocks, one request per second.
trace::Trace example_trace(int rounds) {
  std::vector<trace::TraceRecord> recs;
  double t = 0.0;
  for (int i = 0; i < rounds; ++i) {
    for (DataId b = 0; b < 6; ++b) {
      trace::TraceRecord r;
      r.time = t;
      r.data = b;
      r.size_bytes = 64 * 1024;
      r.is_read = true;
      recs.push_back(r);
      t += 1.0;
    }
  }
  return trace::Trace(std::move(recs));
}

TEST(DegradedRun, FailStopCountsFailoversAndUnavailable) {
  // Disk 0 dies at t=5 and never returns. b1 (data 0) lives only on disk 0,
  // so its later requests are unavailable; b2/b3/b5 (data 1, 2, 4) fail over.
  storage::SystemConfig cfg;
  cfg.initial_state = disk::DiskState::Idle;
  ScriptedFault f;
  f.disk = 0;
  f.time = 5.0;
  cfg.fault.script.push_back(f);
  core::StaticScheduler sched;
  power::AlwaysOnPolicy policy;
  const auto r = storage::run_online(cfg, testing::example_placement(),
                                     example_trace(4), sched, policy);
  EXPECT_TRUE(r.faults_enabled);
  EXPECT_EQ(r.fault_stats.disk_failures, 1u);
  EXPECT_GT(r.fault_stats.failovers, 0u);
  EXPECT_GT(r.fault_stats.unavailable_requests, 0u);
  EXPECT_GT(r.fault_stats.degraded_seconds, 0.0);
  EXPECT_EQ(r.fault_stats.degraded_episodes, 1u);
  // Unavailable requests never produce a response sample.
  EXPECT_LT(r.response_times.count(), example_trace(4).size());
}

TEST(DegradedRun, RepairRebuildsFromSurvivingReplicas) {
  // Disk 0 dies at t=2, replacement online at t=12. Disk 0 stored data
  // {0, 1, 2, 4}; data 0 had no other replica, so the rebuild recovers
  // exactly three items and reports one as lost.
  storage::SystemConfig cfg;
  cfg.initial_state = disk::DiskState::Idle;
  ScriptedFault f;
  f.disk = 0;
  f.time = 2.0;
  f.duration = 10.0;
  cfg.fault.script.push_back(f);
  core::StaticScheduler sched;
  power::AlwaysOnPolicy policy;
  const auto r = storage::run_online(cfg, testing::example_placement(),
                                     example_trace(6), sched, policy);
  EXPECT_EQ(r.fault_stats.repairs, 1u);
  EXPECT_EQ(r.fault_stats.rebuilds_completed, 1u);
  EXPECT_EQ(r.fault_stats.rebuild_items_lost, 1u);
  EXPECT_EQ(r.fault_stats.rebuild_bytes,
            3u * cfg.fault.rebuild_bytes_per_item);
}

TEST(DegradedRun, RebuildPinsTheDiskAgainstSpinDown) {
  // Same failure under a 2CPM threshold policy: the run must complete with
  // the rebuild done even though the policy would love to spin the
  // rebuilding disk down between internal requests.
  storage::SystemConfig cfg;
  cfg.initial_state = disk::DiskState::Idle;
  ScriptedFault f;
  f.disk = 0;
  f.time = 2.0;
  f.duration = 10.0;
  cfg.fault.script.push_back(f);
  core::StaticScheduler sched;
  power::FixedThresholdPolicy policy;
  const auto r = storage::run_online(cfg, testing::example_placement(),
                                     example_trace(6), sched, policy);
  EXPECT_EQ(r.fault_stats.rebuilds_completed, 1u);
  EXPECT_EQ(r.fault_stats.rebuild_bytes,
            3u * cfg.fault.rebuild_bytes_per_item);
}

TEST(DegradedRun, ResultJsonGrowsAFaultsObjectOnlyWhenEnabled) {
  storage::SystemConfig cfg;
  cfg.initial_state = disk::DiskState::Idle;
  core::StaticScheduler sched;
  power::AlwaysOnPolicy policy;
  const auto clean = storage::run_online(cfg, testing::example_placement(),
                                         example_trace(2), sched, policy);
  EXPECT_EQ(clean.to_json().find("\"faults\""), std::string::npos);

  ScriptedFault f;
  f.disk = 0;
  f.time = 1.0;
  cfg.fault.script.push_back(f);
  const auto faulty = storage::run_online(cfg, testing::example_placement(),
                                          example_trace(2), sched, policy);
  const std::string json = faulty.to_json();
  EXPECT_NE(json.find("\"faults\""), std::string::npos);
  EXPECT_NE(json.find("\"unavailable_requests\""), std::string::npos);
  EXPECT_NE(json.find("\"rebuild_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded_seconds\""), std::string::npos);
}

// ------------------------------------------- full roster + thread identity

runner::ExperimentParams small_faulty_params() {
  return runner::ExperimentBuilder(runner::Workload::kCello)
      .requests(1200)
      .disks(24)
      .fail_disk_at(/*disk=*/3, /*time=*/0.5)
      .build();
}

TEST(DegradedSweep, SingleDiskFailureRunsUnderEveryRegisteredScheduler) {
  const auto p = small_faulty_params();
  const auto trace = runner::make_workload(p.workload, p.trace_seed,
                                           p.num_requests);
  const auto placement = runner::make_placement(p);
  for (const auto& spec : runner::SchedulerRegistry::global().specs()) {
    SCOPED_TRACE(spec.name);
    const auto r = runner::run_cell(spec, p, trace, placement);
    EXPECT_TRUE(r.faults_enabled);
    EXPECT_EQ(r.fault_stats.disk_failures, 1u);
    EXPECT_GT(r.fault_stats.degraded_seconds, 0.0);
    // rf=3 over 24 disks: losing one disk never strands a block.
    EXPECT_EQ(r.fault_stats.unavailable_requests, 0u);
    EXPECT_EQ(r.total_requests, p.num_requests);
  }
}

TEST(DegradedSweep, BitIdenticalAcrossThreadCounts) {
  const auto faulty = small_faulty_params();
  const auto clean = runner::ExperimentBuilder(runner::Workload::kCello)
                         .requests(1200)
                         .disks(24)
                         .build();
  auto cell = [](const char* sched, const runner::ExperimentParams& p,
                 const char* tag) {
    runner::CellSpec c;
    c.scheduler = sched;
    c.params = p;
    c.tag = tag;
    return c;
  };
  auto make_cells = [&] {
    std::vector<runner::CellSpec> cells;
    for (const char* sched : {"static", "heuristic", "wsc"}) {
      cells.push_back(cell(sched, clean, "clean"));
      cells.push_back(cell(sched, faulty, "fail-3"));
    }
    return cells;
  };
  // Compare the deterministic payload of every cell (wall time and RSS
  // legitimately vary between runs, so emit_cells output is not comparable
  // as a whole).
  auto payload = [](const std::vector<runner::CellResult>& results) {
    std::ostringstream os;
    for (const auto& r : results) {
      EXPECT_EQ(r.status, runner::CellStatus::kOk);
      os << r.spec.scheduler << '|' << r.spec.tag << '|'
         << r.result.to_json(/*include_disks=*/true) << '\n';
    }
    return os.str();
  };
  runner::SweepOptions one;
  one.threads = 1;
  runner::SweepOptions four;
  four.threads = 4;
  const auto serial_results = runner::SweepRunner(one).run(make_cells());
  const auto parallel_results = runner::SweepRunner(four).run(make_cells());
  EXPECT_EQ(payload(serial_results), payload(parallel_results));
  // The fault cells carry the energy delta against their fault-free twin.
  std::ostringstream emitted;
  runner::emit_cells(emitted, serial_results, runner::EmitFormat::kJson);
  EXPECT_NE(emitted.str().find("energy_delta_vs_fault_free_j"),
            std::string::npos);
}

TEST(DegradedSweep, AvailabilityColumnsAppearOnlyWithFaults) {
  const auto clean = runner::ExperimentBuilder(runner::Workload::kCello)
                         .requests(600)
                         .disks(12)
                         .build();
  auto cell = [](const char* sched, const runner::ExperimentParams& p,
                 const char* tag) {
    runner::CellSpec c;
    c.scheduler = sched;
    c.params = p;
    c.tag = tag;
    return c;
  };
  runner::SweepOptions opts;
  opts.threads = 2;
  runner::SweepRunner sweeper(opts);
  const auto clean_results = sweeper.run({cell("static", clean, "clean")});
  std::ostringstream clean_csv;
  runner::emit_cells(clean_csv, clean_results, runner::EmitFormat::kCsv);
  EXPECT_EQ(clean_csv.str().find("unavailable"), std::string::npos);

  const auto faulty = runner::ExperimentBuilder(clean)
                          .fail_disk_at(2, 0.5)
                          .build();
  const auto fault_results = sweeper.run(
      {cell("static", clean, "clean"), cell("static", faulty, "fail-2")});
  std::ostringstream csv;
  runner::emit_cells(csv, fault_results, runner::EmitFormat::kCsv);
  EXPECT_NE(csv.str().find("unavailable"), std::string::npos);
  EXPECT_NE(csv.str().find("rebuild_bytes"), std::string::npos);
  EXPECT_NE(csv.str().find("energy_delta_j"), std::string::npos);
}

TEST(DegradedSweep, FaultFreeTwinSharesTheCellsSeeds) {
  // describe() omits the seeds, so a twin matched on params alone would
  // compare seed 2's degraded run with seed 1's clean one.
  std::vector<runner::CellSpec> cells;
  for (const std::uint64_t seed : {1u, 2u}) {
    const auto clean = runner::ExperimentBuilder(runner::Workload::kCello)
                           .requests(3000)
                           .disks(20)
                           .trace_seed(seed)
                           .build();
    const auto faulty = runner::ExperimentBuilder(clean)
                            .fail_disk_at(3, 10.0, /*repair=*/50.0)
                            .build();
    for (const auto& p : {clean, faulty}) {
      runner::CellSpec c;
      c.scheduler = "static";
      c.params = p;
      c.tag = "seed-" + std::to_string(seed);
      cells.push_back(std::move(c));
    }
  }
  runner::SweepOptions opts;
  opts.threads = 2;
  const auto results = runner::SweepRunner(opts).run(std::move(cells));
  ASSERT_EQ(results.size(), 4u);
  const auto energy = [&](std::size_t i) {
    return results[i].result.total_energy();
  };
  ASSERT_NE(energy(1), energy(3));
  ASSERT_NE(energy(0), energy(2));

  std::ostringstream os;
  runner::emit_cells(os, results, runner::EmitFormat::kJson);
  const auto delta_field = [](double d) {
    return "\"energy_delta_vs_fault_free_j\":" + util::json_number(d) + ",";
  };
  EXPECT_NE(os.str().find(delta_field(energy(1) - energy(0))),
            std::string::npos);
  EXPECT_NE(os.str().find(delta_field(energy(3) - energy(2))),
            std::string::npos);
  EXPECT_EQ(os.str().find(delta_field(energy(3) - energy(0))),
            std::string::npos);
}

}  // namespace
}  // namespace eas::fault
