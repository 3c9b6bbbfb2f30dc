// Unit tests for the scheduler strategies against a scripted SystemView.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/basic_schedulers.hpp"
#include "core/cost_scheduler.hpp"
#include "core/wsc_scheduler.hpp"
#include "paper_example.hpp"
#include "scripted_fleet.hpp"
#include "util/check.hpp"

namespace eas::core {
namespace {

using testing::example_placement;
using testing::example_power;

disk::Request request_for(DataId data) {
  disk::Request r;
  r.id = 1;
  r.data = data;
  return r;
}

TEST(StaticScheduler, AlwaysPicksTheOriginalLocation) {
  testing::ScriptedFleet fleet(example_placement());
  StaticScheduler sched;
  for (DataId b = 0; b < 6; ++b) {
    EXPECT_EQ(sched.pick(request_for(b), fleet.view),
              fleet.placement.original(b));
  }
}

TEST(RandomScheduler, OnlyPicksReplicaLocationsAndUsesAllOfThem) {
  testing::ScriptedFleet fleet(example_placement());
  RandomScheduler sched(3);
  std::set<DiskId> seen;
  for (int i = 0; i < 200; ++i) {
    // b3: disks {0,1,3}
    const DiskId k = sched.pick(request_for(2), fleet.view);
    EXPECT_TRUE(fleet.placement.stores(2, k));
    seen.insert(k);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three replicas exercised
}

TEST(RandomScheduler, OfflineAssignmentIsValidAndSeedDeterministic) {
  const auto trace = testing::example_offline_trace();
  RandomScheduler a(5), b(5);
  const auto sa = a.schedule(trace, example_placement(), example_power());
  const auto sb = b.schedule(trace, example_placement(), example_power());
  sa.validate(trace, example_placement());
  EXPECT_EQ(sa.disk_of_request, sb.disk_of_request);
}

TEST(CostFunctionScheduler, PureEnergyPrefersActiveOverStandby) {
  testing::ScriptedFleet fleet(example_placement());
  // b3 lives on disks 0, 1, 3.
  fleet.rows[0].state = disk::DiskState::Standby;
  fleet.rows[1].state = disk::DiskState::Active;
  fleet.rows[1].queued_requests = 4;  // busy, but alpha=1 ignores queues
  fleet.rows[3].state = disk::DiskState::Standby;
  CostFunctionScheduler sched(CostParams{1.0, 100.0});
  EXPECT_EQ(sched.pick(request_for(2), fleet.view), 1u);
}

TEST(CostFunctionScheduler, PurePerformancePrefersShortQueues) {
  testing::ScriptedFleet fleet(example_placement());
  fleet.rows[0].state = disk::DiskState::Active;
  fleet.rows[0].queued_requests = 9;
  fleet.rows[1].state = disk::DiskState::Standby;  // expensive but empty
  fleet.rows[3].state = disk::DiskState::Active;
  fleet.rows[3].queued_requests = 2;
  CostFunctionScheduler sched(CostParams{0.0, 100.0});
  const DiskId k = sched.pick(request_for(2), fleet.view);
  EXPECT_TRUE(k == 1u || k == 3u);
  EXPECT_NE(k, 0u);
}

TEST(CostFunctionScheduler, TieBreaksTowardTheEarliestReplica) {
  testing::ScriptedFleet fleet(example_placement());
  // All three locations identical => first listed (disk 0) wins.
  CostFunctionScheduler sched;
  EXPECT_EQ(sched.pick(request_for(2), fleet.view), 0u);
}

TEST(CostFunctionScheduler, PrefersSpinningUpOverIdleWhenSavingEnergy) {
  // §3.3: a spinning-up disk can absorb requests for free; an idle disk
  // with an old T_last charges the full window extension.
  testing::ScriptedFleet fleet(example_placement());
  fleet.view.set_now(100.0);
  fleet.rows[0].state = disk::DiskState::Idle;
  fleet.rows[0].last_request_time = 10.0;  // 90 s of extension
  fleet.rows[1].state = disk::DiskState::SpinningUp;
  fleet.rows[1].queued_requests = 1;
  CostFunctionScheduler sched(CostParams{1.0, 100.0});
  EXPECT_EQ(sched.pick(request_for(2), fleet.view), 1u);
}

TEST(WscBatchScheduler, EmptyBatchYieldsEmptyAssignment) {
  testing::ScriptedFleet fleet(example_placement());
  WscBatchScheduler sched(0.1);
  EXPECT_TRUE(sched.assign({}, fleet.view).empty());
}

TEST(WscBatchScheduler, AssignsEveryRequestToAStoringDisk) {
  testing::ScriptedFleet fleet(example_placement());
  WscBatchScheduler sched(0.1);
  std::vector<disk::Request> batch;
  for (DataId b = 0; b < 6; ++b) batch.push_back(request_for(b));
  const auto assignment = sched.assign(batch, fleet.view);
  ASSERT_EQ(assignment.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(fleet.placement.stores(batch[i].data, assignment[i]));
  }
}

TEST(WscBatchScheduler, PureEnergyModeFindsAMinimumFig2Cover) {
  // All disks standby (equal weight): a minimum cover uses two disks — d1
  // plus either d3 or d4 (both cover {r4, r6}), matching Fig 2's schedule B
  // energy of 2 x 5 J.
  testing::ScriptedFleet fleet(example_placement());
  WscBatchScheduler sched(0.1, {}, WscBatchScheduler::WeightMode::kPureEnergy);
  std::vector<disk::Request> batch;
  for (DataId b = 0; b < 6; ++b) batch.push_back(request_for(b));
  const auto assignment = sched.assign(batch, fleet.view);
  const std::set<DiskId> used(assignment.begin(), assignment.end());
  EXPECT_EQ(used.size(), 2u);
  EXPECT_TRUE(used.contains(0u));
  EXPECT_TRUE(used.contains(2u) || used.contains(3u));
}

TEST(WscBatchScheduler, AvoidsWakingStandbyDisksWhenIdleOnesSuffice) {
  testing::ScriptedFleet fleet(example_placement());
  fleet.view.set_now(10.0);
  // d1 (disk 0) idle and warm; d2/d4 standby. b2 is on {0,1}; b5 on {0,3}.
  fleet.rows[0].state = disk::DiskState::Idle;
  fleet.rows[0].last_request_time = 9.0;
  fleet.rows[1].state = disk::DiskState::Standby;
  fleet.rows[3].state = disk::DiskState::Standby;
  WscBatchScheduler sched(0.1, {}, WscBatchScheduler::WeightMode::kPureEnergy);
  const auto assignment =
      sched.assign({request_for(1), request_for(4)}, fleet.view);
  EXPECT_EQ(assignment[0], 0u);
  EXPECT_EQ(assignment[1], 0u);
}

TEST(WscBatchScheduler, BuildInstanceExposesCandidatesAndWeights) {
  testing::ScriptedFleet fleet(example_placement());
  WscBatchScheduler sched(0.1, {}, WscBatchScheduler::WeightMode::kPureEnergy);
  std::vector<DiskId> candidates;
  const auto inst =
      sched.build_instance({request_for(0), request_for(3)}, fleet.view,
                           candidates);
  // b1 -> {d1}; b4 -> {d3, d4}: three candidate disks.
  EXPECT_EQ(inst.num_elements(), 2u);
  EXPECT_EQ(inst.num_sets(), 3u);
  EXPECT_EQ(candidates.size(), 3u);
  for (const double w : inst.weights) {
    EXPECT_DOUBLE_EQ(w, example_power().max_request_energy());
  }
}

TEST(WscBatchScheduler, RejectsNonPositiveInterval) {
  EXPECT_THROW(WscBatchScheduler(0.0), InvariantError);
}

TEST(OfflineAssignment, ValidateCatchesWrongDiskAndWrongSize) {
  const auto trace = testing::example_offline_trace();
  OfflineAssignment a;
  a.disk_of_request = {0, 0, 0, 2, 0};  // one short
  EXPECT_THROW(a.validate(trace, example_placement()), InvariantError);
  a.disk_of_request = {0, 0, 0, 2, 0, 0};  // r6 (b6) is not on disk 0
  EXPECT_THROW(a.validate(trace, example_placement()), InvariantError);
}

TEST(OfflineAssignment, ArrivalsByDiskGroupsAndSorts) {
  const auto trace = testing::example_offline_trace();
  OfflineAssignment a;
  a.disk_of_request = {0, 0, 0, 2, 3, 3};
  const auto by_disk = a.arrivals_by_disk(trace, 4);
  EXPECT_EQ(by_disk[0], (std::vector<double>{0.0, 1.0, 3.0}));
  EXPECT_EQ(by_disk[2], (std::vector<double>{5.0}));
  EXPECT_EQ(by_disk[3], (std::vector<double>{12.0, 13.0}));
  EXPECT_TRUE(by_disk[1].empty());
}

TEST(SchedulerNames, AreDescriptive) {
  EXPECT_EQ(StaticScheduler().name(), "static");
  EXPECT_EQ(RandomScheduler().name(), "random");
  EXPECT_NE(CostFunctionScheduler().name().find("heuristic"),
            std::string::npos);
  EXPECT_NE(WscBatchScheduler(0.5).name().find("0.5"), std::string::npos);
}

}  // namespace
}  // namespace eas::core
