// Integration tests: full trace runs through the event-driven storage
// system under each scheduling model and power policy.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/basic_schedulers.hpp"
#include "core/cost_scheduler.hpp"
#include "core/mwis_scheduler.hpp"
#include "core/offline_eval.hpp"
#include "core/wsc_scheduler.hpp"
#include "paper_example.hpp"
#include "power/fixed_threshold.hpp"
#include "runner/experiment.hpp"
#include "storage/storage_system.hpp"
#include "trace/synthetic.hpp"

namespace eas {
namespace {

using testing::example_placement;
using testing::example_power;

storage::SystemConfig small_config() {
  storage::SystemConfig cfg;
  cfg.power.idle_watts = 10.0;
  cfg.power.active_watts = 12.0;
  cfg.power.standby_watts = 1.0;
  cfg.power.spinup_watts = 20.0;
  cfg.power.spindown_watts = 10.0;
  cfg.power.spinup_seconds = 6.0;
  cfg.power.spindown_seconds = 4.0;  // breakeven = 16 s
  return cfg;
}

trace::Trace sparse_trace(std::size_t n, double gap, DataId num_data) {
  std::vector<trace::TraceRecord> recs;
  for (std::size_t i = 0; i < n; ++i) {
    trace::TraceRecord r;
    r.time = gap * static_cast<double>(i);
    r.data = static_cast<DataId>(i % num_data);
    r.is_read = true;
    recs.push_back(r);
  }
  return trace::Trace(std::move(recs));
}

placement::PlacementMap small_placement(DiskId disks, DataId data,
                                        unsigned rf, std::uint64_t seed) {
  placement::ZipfPlacementConfig cfg;
  cfg.num_disks = disks;
  cfg.num_data = data;
  cfg.replication_factor = rf;
  cfg.zipf_z = 1.0;
  cfg.seed = seed;
  return placement::make_zipf_placement(cfg);
}

TEST(RunAlwaysOn, EnergyIsIdlePowerTimesFleetTimesHorizon) {
  const auto cfg = small_config();
  const auto placement = small_placement(8, 32, 2, 1);
  const auto trace = sparse_trace(20, 1.0, 32);
  const auto result = storage::run_always_on(cfg, placement, trace);

  EXPECT_EQ(result.total_requests, trace.size());
  EXPECT_EQ(result.total_spin_ups(), 0u);
  EXPECT_EQ(result.total_spin_downs(), 0u);
  // Disks never leave idle except to serve; energy differs from the pure
  // idle baseline only by the active-vs-idle delta during service.
  const double baseline = result.always_on_energy(cfg.power);
  EXPECT_NEAR(result.total_energy(), baseline, baseline * 0.01);
  EXPECT_GE(result.total_energy(), baseline);
}

TEST(RunOnline, TwoCpmSavesEnergyOnASparseTrace) {
  const auto cfg = small_config();
  const auto placement = small_placement(8, 32, 1, 1);
  // Gaps of 60 s >> breakeven 16 s: every disk should spin down between
  // requests and 2CPM must beat always-on.
  const auto trace = sparse_trace(12, 60.0, 32);

  core::StaticScheduler sched;
  power::FixedThresholdPolicy policy;
  const auto r2cpm = storage::run_online(cfg, placement, trace, sched, policy);
  EXPECT_GT(r2cpm.total_spin_downs(), 0u);
  EXPECT_LT(r2cpm.normalized_energy(cfg.power), 0.75);
}

TEST(RunOnline, SpinUpDelayShowsUpInResponseTimes) {
  const auto cfg = small_config();
  const auto placement = small_placement(4, 8, 1, 3);
  const auto trace = sparse_trace(6, 100.0, 8);

  core::StaticScheduler sched;
  power::FixedThresholdPolicy policy;
  const auto result = storage::run_online(cfg, placement, trace, sched, policy);
  // Disks start standby, so at least the first request per disk waits T_up.
  EXPECT_GT(result.requests_waited_spinup, 0u);
  EXPECT_GE(result.response_times.quantile(1.0), cfg.power.spinup_seconds);
}

TEST(RunOnline, SchedulersOnlyUseReplicaLocations) {
  // The runner EAS_CHECKs placement membership on every dispatch; a full
  // run passing is the assertion.
  const auto cfg = small_config();
  const auto placement = small_placement(10, 64, 3, 7);
  const auto trace = sparse_trace(200, 0.05, 64);

  core::RandomScheduler random(11);
  core::CostFunctionScheduler cost;
  power::FixedThresholdPolicy p1, p2;
  const auto r1 = storage::run_online(cfg, placement, trace, random, p1);
  const auto r2 = storage::run_online(cfg, placement, trace, cost, p2);
  EXPECT_EQ(r1.total_requests, trace.size());
  EXPECT_EQ(r2.total_requests, trace.size());
}

TEST(RunOnline, DeterministicForFixedSeeds) {
  const auto cfg = small_config();
  const auto placement = small_placement(10, 64, 3, 7);
  const auto trace = trace::make_synthetic_trace([] {
    trace::SyntheticTraceConfig c;
    c.num_requests = 500;
    c.num_data = 64;
    c.mean_rate = 50.0;
    c.seed = 5;
    return c;
  }());

  auto run_once = [&] {
    core::RandomScheduler sched(99);
    power::FixedThresholdPolicy policy;
    return storage::run_online(cfg, placement, trace, sched, policy);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.total_energy(), b.total_energy());
  EXPECT_EQ(a.total_spin_ups(), b.total_spin_ups());
  EXPECT_DOUBLE_EQ(a.mean_response(), b.mean_response());
}

// Disks bind their one service lane at construction, for the block size,
// so a trace with more request sizes than the kernel has lanes adds none.
// Lane or heap, a completion fires at the same time in the same order, so
// which size rides the lane changes no output bit.
TEST(RunOnline, OutputDoesNotDependOnWhichSizeRidesTheServiceLane) {
  const auto placement = small_placement(8, 64, 2, 3);
  std::vector<trace::TraceRecord> recs;
  // Every other request is 4 KiB; the rest take 400 other sizes.
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const std::uint32_t bytes = i % 2 == 0 ? 4096 : 4096 + 512 * (i % 800);
    recs.push_back({0.004 * i, static_cast<DataId>(i % 64), bytes, true});
  }
  const trace::Trace trace(std::move(recs));
  auto run_with_lane = [&](unsigned long lane_bytes) {
    auto cfg = small_config();
    cfg.cache.block_bytes = lane_bytes;
    core::CostFunctionScheduler sched;
    power::FixedThresholdPolicy policy;
    return storage::run_online(cfg, placement, trace, sched, policy);
  };
  const auto none = run_with_lane(1);  // no request has this size
  ASSERT_EQ(none.total_requests, trace.size());
  for (const unsigned long bytes : {4096ul, 4096ul + 512 * 7}) {
    const auto r = run_with_lane(bytes);
    EXPECT_EQ(r.total_requests, trace.size()) << bytes;
    EXPECT_EQ(r.total_energy(), none.total_energy()) << bytes;
    EXPECT_EQ(r.mean_response(), none.mean_response()) << bytes;
    EXPECT_EQ(r.horizon, none.horizon) << bytes;
    EXPECT_EQ(r.total_spin_ups(), none.total_spin_ups()) << bytes;
    ASSERT_EQ(r.disk_stats.size(), none.disk_stats.size());
    for (std::size_t k = 0; k < r.disk_stats.size(); ++k) {
      EXPECT_EQ(r.disk_stats[k].requests_served,
                none.disk_stats[k].requests_served)
          << bytes << " disk " << k;
      EXPECT_EQ(r.disk_stats[k].total_seconds(),
                none.disk_stats[k].total_seconds())
          << bytes << " disk " << k;
    }
  }
}

TEST(RunBatch, QueueingDelayIsBoundedByOneInterval) {
  const auto cfg = small_config();
  const auto placement = small_placement(8, 32, 2, 1);
  const auto trace = sparse_trace(50, 0.013, 32);

  core::WscBatchScheduler sched(0.1);
  power::FixedThresholdPolicy policy;
  const auto result = storage::run_batch(cfg, placement, trace, sched, policy);
  EXPECT_EQ(result.total_requests, trace.size());
  // Every request waits for the next tick: dispatch - arrival <= interval.
  // Response additionally includes spin-up + service; the minimum response
  // must still reflect some batching delay.
  EXPECT_GT(result.mean_response(), 0.0);
}

TEST(RunBatch, DrainsEveryRequestEvenWithEmptyIntervals) {
  const auto cfg = small_config();
  const auto placement = small_placement(4, 8, 2, 2);
  // Two widely separated clumps; ticks must keep running across the gap.
  std::vector<trace::TraceRecord> recs;
  for (int i = 0; i < 5; ++i) {
    recs.push_back({0.01 * i, static_cast<DataId>(i), 4096, true});
    recs.push_back({50.0 + 0.01 * i, static_cast<DataId>(i), 4096, true});
  }
  const trace::Trace trace(std::move(recs));

  core::WscBatchScheduler sched(0.1);
  power::FixedThresholdPolicy policy;
  const auto result = storage::run_batch(cfg, placement, trace, sched, policy);
  EXPECT_EQ(result.total_requests, trace.size());
}

TEST(RunOffline, OracleAvoidsSpinUpWaits) {
  const auto cfg = small_config();
  const auto placement = small_placement(6, 24, 2, 4);
  // First arrival after T_up so even the initial pre-spin completes in time.
  std::vector<trace::TraceRecord> recs;
  for (int i = 0; i < 12; ++i) {
    recs.push_back({10.0 + 40.0 * i, static_cast<DataId>(i % 24), 4096, true});
  }
  const trace::Trace trace(std::move(recs));

  core::StaticScheduler sched;
  const auto assignment = sched.schedule(trace, placement, cfg.power);
  const auto result =
      storage::run_offline(cfg, placement, trace, assignment, "static");
  EXPECT_EQ(result.total_requests, trace.size());
  EXPECT_EQ(result.requests_waited_spinup, 0u);
  // No request should see more than service time (single-digit ms).
  EXPECT_LT(result.response_times.quantile(1.0), 0.1);
}

TEST(RunOffline, DesAgreesWithAnalyticEvaluator) {
  // The same offline assignment, executed by two independent
  // implementations of the power physics (event-driven vs closed-form),
  // must produce near-identical energy and spin counts. Active-state I/O
  // time is the only modelled difference; with tiny transfers it is noise.
  const auto cfg = small_config();
  const auto placement = small_placement(6, 24, 3, 4);
  std::vector<trace::TraceRecord> recs;
  util::Rng rng(17);
  double t = 20.0;
  for (int i = 0; i < 60; ++i) {
    t += rng.exponential(0.05);  // sparse: mean gap 20 s vs breakeven 16 s
    recs.push_back({t, static_cast<DataId>(rng.next_below(24)), 4096, true});
  }
  const trace::Trace trace(std::move(recs));

  core::MwisOfflineScheduler sched;
  const auto assignment = sched.schedule(trace, placement, cfg.power);

  const auto des =
      storage::run_offline(cfg, placement, trace, assignment, "mwis");
  const auto analytic = core::evaluate_offline(
      trace, assignment, placement.num_disks(), cfg.power, des.horizon);

  EXPECT_EQ(des.total_spin_ups(), analytic.total_spin_ups());
  EXPECT_EQ(des.total_spin_downs(), analytic.total_spin_downs());
  EXPECT_NEAR(des.total_energy(), analytic.total_energy(),
              analytic.total_energy() * 0.01);
}

TEST(RunResult, StateTimeFractionsSumToOne) {
  const auto cfg = small_config();
  const auto placement = small_placement(8, 32, 2, 1);
  const auto trace = sparse_trace(40, 5.0, 32);
  core::CostFunctionScheduler sched;
  power::FixedThresholdPolicy policy;
  const auto result = storage::run_online(cfg, placement, trace, sched, policy);

  std::vector<double> sums(placement.num_disks(), 0.0);
  for (int s = 0; s < disk::kNumDiskStates; ++s) {
    const auto f =
        result.state_time_fractions(static_cast<disk::DiskState>(s));
    for (std::size_t k = 0; k < f.size(); ++k) sums[k] += f[k];
  }
  for (double total : sums) EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(EnergyAwareVsOblivious, HeuristicBeatsRandomWithReplication) {
  // The paper's headline: with replicas available, energy-aware routing
  // saves energy relative to Random/Static under identical conditions.
  const auto cfg = small_config();
  const auto placement = small_placement(12, 128, 3, 21);
  trace::SyntheticTraceConfig tc;
  tc.num_requests = 4000;
  tc.num_data = 128;
  tc.mean_rate = 10.0;  // sparse enough that spin-downs are on the table
  tc.seed = 31;
  const auto trace = trace::make_synthetic_trace(tc);

  core::RandomScheduler random(5);
  core::CostFunctionScheduler heuristic;  // alpha=0.2, beta=100
  power::FixedThresholdPolicy p1, p2;
  const auto r_random =
      storage::run_online(cfg, placement, trace, random, p1);
  const auto r_heur =
      storage::run_online(cfg, placement, trace, heuristic, p2);

  EXPECT_LT(r_heur.total_energy(), r_random.total_energy());
}

// --- event heap bound ---------------------------------------------------------
//
// Arrivals stream through the kernel's arrival lane, so the simulator holds
// only disk, timer and tier events — never one per trace record. A policy
// wrapper samples pending_count() at every idle/activity notification (the
// points where the run is busiest) and forwards to the real 2CPM policy.

class PendingSampler final : public power::PowerPolicy {
 public:
  std::string name() const override { return inner_.name(); }
  void on_run_start(sim::Simulator& sim,
                    const std::vector<disk::Disk*>& disks) override {
    sample(sim);
    inner_.on_run_start(sim, disks);
  }
  void on_disk_idle(sim::Simulator& sim, disk::Disk& d) override {
    sample(sim);
    inner_.on_disk_idle(sim, d);
  }
  void on_disk_activity(sim::Simulator& sim, disk::Disk& d) override {
    sample(sim);
    inner_.on_disk_activity(sim, d);
  }
  std::size_t max_pending() const { return max_pending_; }
  std::uint64_t samples() const { return samples_; }

 private:
  void sample(const sim::Simulator& sim) {
    max_pending_ = std::max(max_pending_, sim.pending_count());
    ++samples_;
  }
  power::FixedThresholdPolicy inner_;
  std::size_t max_pending_ = 0;
  std::uint64_t samples_ = 0;
};

TEST(EventHeapBound, PendingEventsScaleWithDisksNotTraceLength) {
  const auto p = runner::ExperimentBuilder(runner::Workload::kCello)
                     .requests(100000)
                     .build();
  const auto trace = runner::make_workload(p.workload, p.trace_seed,
                                           p.num_requests);
  const auto placement = runner::make_placement(p);
  const auto config = runner::system_config_for(p);
  // Per disk at most a service completion, a power transition and a
  // spin-down timer are pending; plus the one arrival in the lane.
  const std::size_t bound = 3 * std::size_t{p.num_disks} + 1;

  PendingSampler online_policy;
  core::CostFunctionScheduler online(p.cost);
  const auto r = storage::run_online(config, placement, trace, online,
                                     online_policy);
  EXPECT_EQ(r.total_requests, trace.size());
  EXPECT_GT(online_policy.samples(), trace.size());
  EXPECT_LE(online_policy.max_pending(), bound);

  PendingSampler batch_policy;
  core::WscBatchScheduler batch(p.batch_interval, p.cost);
  const auto rb = storage::run_batch(config, placement, trace, batch,
                                     batch_policy);
  EXPECT_EQ(rb.total_requests, trace.size());
  EXPECT_LE(batch_policy.max_pending(), bound);
}

}  // namespace
}  // namespace eas
