// Tests for the write off-loading extension (§2.1's assumed substrate).
#include <gtest/gtest.h>

#include "core/basic_schedulers.hpp"
#include "core/cost_scheduler.hpp"
#include "core/write_offload.hpp"
#include "paper_example.hpp"
#include "power/fixed_threshold.hpp"
#include "scripted_fleet.hpp"
#include "storage/storage_system.hpp"
#include "trace/synthetic.hpp"

namespace eas::core {
namespace {

disk::Request write_to(DataId data) {
  disk::Request r;
  r.id = 1;
  r.data = data;
  return r;
}

TEST(WriteOffload, SpinningHomeAbsorbsTheWrite) {
  testing::ScriptedFleet fleet(testing::example_placement());
  fleet.rows[0].state = disk::DiskState::Idle;  // home of b1
  WriteOffloadManager mgr;
  EXPECT_EQ(mgr.route_write(write_to(0), fleet.view), 0u);
  EXPECT_EQ(mgr.stats().writes_home, 1u);
  EXPECT_EQ(mgr.diverted_blocks(), 0u);
}

TEST(WriteOffload, SleepingHomeDivertsToSpinningReplica) {
  testing::ScriptedFleet fleet(testing::example_placement());
  fleet.rows[1].state = disk::DiskState::Idle;  // d2 holds b3's replica
  WriteOffloadManager mgr;
  // b3 (data 2) lives on {0, 1, 3}; home 0 sleeps, replica 1 spins.
  EXPECT_EQ(mgr.route_write(write_to(2), fleet.view), 1u);
  EXPECT_EQ(mgr.stats().writes_diverted, 1u);
  EXPECT_EQ(mgr.diverted_blocks(), 1u);
}

TEST(WriteOffload, FallsBackToAnySpinningDisk) {
  testing::ScriptedFleet fleet(testing::example_placement());
  fleet.rows[2].state = disk::DiskState::Active;  // d3 does NOT hold b1
  WriteOffloadManager mgr;
  EXPECT_EQ(mgr.route_write(write_to(0), fleet.view), 2u);  // foreign diversion
  EXPECT_EQ(mgr.stats().writes_diverted, 1u);
  EXPECT_EQ(mgr.diverted_blocks(), 1u);
}

TEST(WriteOffload, ColdSystemWakesTheHomeDisk) {
  testing::ScriptedFleet fleet(testing::example_placement());
  WriteOffloadManager mgr;
  EXPECT_EQ(mgr.route_write(write_to(0), fleet.view), 0u);
  EXPECT_EQ(mgr.stats().writes_woke_home, 1u);
  EXPECT_EQ(mgr.diverted_blocks(), 0u);
}

TEST(WriteOffload, DisabledManagerAlwaysGoesHome) {
  testing::ScriptedFleet fleet(testing::example_placement());
  fleet.rows[2].state = disk::DiskState::Idle;
  WriteOffloadOptions opts;
  opts.enabled = false;
  WriteOffloadManager mgr(opts);
  EXPECT_EQ(mgr.route_write(write_to(0), fleet.view), 0u);
  EXPECT_EQ(mgr.stats().writes_woke_home, 1u);
}

TEST(WriteOffload, ReadsFollowTheDiversionWhileHomeSleeps) {
  testing::ScriptedFleet fleet(testing::example_placement());
  fleet.rows[2].state = disk::DiskState::Active;
  WriteOffloadManager mgr;
  mgr.route_write(write_to(0), fleet.view);  // b1 diverted to d3

  const auto target = mgr.read_override(0, fleet.view);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, 2u);
  EXPECT_EQ(mgr.stats().reads_redirected, 1u);
}

TEST(WriteOffload, LazyReclaimWhenHomeSpinsUp) {
  testing::ScriptedFleet fleet(testing::example_placement());
  fleet.rows[2].state = disk::DiskState::Active;
  WriteOffloadManager mgr;
  mgr.route_write(write_to(0), fleet.view);
  ASSERT_EQ(mgr.diverted_blocks(), 1u);

  fleet.rows[0].state = disk::DiskState::Idle;  // home woke up for other work
  EXPECT_FALSE(mgr.read_override(0, fleet.view).has_value());
  EXPECT_EQ(mgr.stats().reclaims, 1u);
  EXPECT_EQ(mgr.diverted_blocks(), 0u);
}

TEST(WriteOffload, RewriteToSpinningHomeRetiresTheDiversion) {
  testing::ScriptedFleet fleet(testing::example_placement());
  fleet.rows[2].state = disk::DiskState::Active;
  WriteOffloadManager mgr;
  mgr.route_write(write_to(0), fleet.view);
  ASSERT_EQ(mgr.diverted_blocks(), 1u);

  fleet.rows[0].state = disk::DiskState::Idle;
  EXPECT_EQ(mgr.route_write(write_to(0), fleet.view), 0u);
  EXPECT_EQ(mgr.diverted_blocks(), 0u);
  EXPECT_EQ(mgr.stats().reclaims, 1u);
}

TEST(WriteOffload, ReadOverrideIsNulloptForUndivertedData) {
  testing::ScriptedFleet fleet(testing::example_placement());
  WriteOffloadManager mgr;
  EXPECT_FALSE(mgr.read_override(3, fleet.view).has_value());
}

// ------------------------------------------------------- full-system runs

TEST(RunOnlineMixed, ServesMixedTracesCompletely) {
  trace::SyntheticTraceConfig tc;
  tc.num_requests = 3000;
  tc.num_data = 256;
  tc.mean_rate = 10.0;
  tc.write_fraction = 0.3;
  const auto trace = trace::make_synthetic_trace(tc);
  ASSERT_GT(trace.size() - trace.reads_only().size(), 0u);  // has writes

  placement::ZipfPlacementConfig pc;
  pc.num_disks = 12;
  pc.num_data = 256;
  pc.replication_factor = 2;
  const auto placement = placement::make_zipf_placement(pc);

  storage::SystemConfig cfg;
  CostFunctionScheduler sched;
  power::FixedThresholdPolicy policy;
  WriteOffloadManager offloader;
  const auto result = storage::run_online_mixed(cfg, placement, trace, sched,
                                                policy, offloader);
  EXPECT_EQ(result.total_requests, trace.size());
  EXPECT_EQ(offloader.stats().writes_total,
            trace.size() - trace.reads_only().size());
}

TEST(RunOnlineMixed, OffloadingSavesEnergyOnWriteHeavyWorkloads) {
  trace::SyntheticTraceConfig tc;
  tc.num_requests = 5000;
  tc.num_data = 512;
  tc.mean_rate = 6.0;  // sparse: plenty of sleeping homes to protect
  tc.write_fraction = 0.5;
  const auto trace = trace::make_synthetic_trace(tc);

  placement::ZipfPlacementConfig pc;
  pc.num_disks = 24;
  pc.num_data = 512;
  pc.replication_factor = 2;
  const auto placement = placement::make_zipf_placement(pc);
  storage::SystemConfig cfg;

  auto run = [&](bool enabled) {
    CostFunctionScheduler sched;
    power::FixedThresholdPolicy policy;
    WriteOffloadOptions opts;
    opts.enabled = enabled;
    WriteOffloadManager offloader(opts);
    return storage::run_online_mixed(cfg, placement, trace, sched, policy,
                                     offloader);
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_LT(on.total_energy(), off.total_energy());
  EXPECT_LT(on.total_spin_ups(), off.total_spin_ups());
}

}  // namespace
}  // namespace eas::core
