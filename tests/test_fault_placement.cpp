// Satellite: WSC set-cover behaviour under a degraded FailureView.
//
// The greedy cover solver throws on an infeasible instance, so the
// scheduler must (a) drop dead disks from the candidate sets, (b) keep the
// universe feasible by excluding requests with no readable replica, and
// (c) *report* those requests as kInvalidDisk instead of asserting.
#include <gtest/gtest.h>

#include <vector>

#include "core/wsc_scheduler.hpp"
#include "fault/failure_view.hpp"
#include "paper_example.hpp"
#include "scripted_fleet.hpp"
#include "util/check.hpp"

namespace eas::core {
namespace {

std::vector<disk::Request> batch_for(std::initializer_list<DataId> data) {
  std::vector<disk::Request> batch;
  RequestId id = 0;
  for (DataId b : data) {
    disk::Request r;
    r.id = ++id;
    r.data = b;
    batch.push_back(r);
  }
  return batch;
}

void expect_valid_assignment(const std::vector<DiskId>& assignment,
                             const std::vector<disk::Request>& batch,
                             const placement::PlacementMap& pm,
                             const fault::FailureView& view) {
  ASSERT_EQ(assignment.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const DiskId k = assignment[i];
    if (k == kInvalidDisk) continue;
    EXPECT_TRUE(pm.stores(batch[i].data, k))
        << "request " << i << " assigned off-replica disk " << k;
    EXPECT_TRUE(view.replica_readable(batch[i].data, k))
        << "request " << i << " assigned unreadable replica on disk " << k;
  }
}

TEST(WscUnderFaults, HealthyOverlayMatchesTheFaultFreePath) {
  testing::ScriptedFleet bare(testing::example_placement());
  testing::ScriptedFleet overlaid(testing::example_placement());
  fault::FailureView healthy(4);
  overlaid.view.set_failure_view(&healthy);
  WscBatchScheduler a, b;
  const auto batch = batch_for({0, 1, 2, 3, 4, 5});
  EXPECT_EQ(a.assign(batch, bare.view), b.assign(batch, overlaid.view));
}

TEST(WscUnderFaults, SingleDiskDeathFallsBackToAValidCover) {
  // Disk 0 holds data {0,1,2,4}; with it down, every block except data 0
  // still has a live replica and the cover must use only those.
  testing::ScriptedFleet fleet(testing::example_placement());
  fault::FailureView fv(4);
  fv.set_health(0.0, 0, fault::DiskHealth::kDown);
  fleet.view.set_failure_view(&fv);
  WscBatchScheduler sched;
  const auto batch = batch_for({1, 2, 3, 4, 5});
  const auto assignment = sched.assign(batch, fleet.view);
  expect_valid_assignment(assignment, batch, fleet.placement, fv);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_NE(assignment[i], kInvalidDisk) << "request " << i;
    EXPECT_NE(assignment[i], 0u) << "request " << i;
  }
}

TEST(WscUnderFaults, EachSingleDiskDeathStaysCoverable) {
  // rf >= 2 for data {1,2,3,4,5}: killing any one disk leaves them served.
  for (DiskId dead = 0; dead < 4; ++dead) {
    SCOPED_TRACE(dead);
    testing::ScriptedFleet fleet(testing::example_placement());
    fault::FailureView fv(4);
    fv.set_health(0.0, dead, fault::DiskHealth::kDown);
    fleet.view.set_failure_view(&fv);
    WscBatchScheduler sched;
    const auto batch = batch_for({1, 2, 3, 4, 5});
    const auto assignment = sched.assign(batch, fleet.view);
    expect_valid_assignment(assignment, batch, fleet.placement, fv);
    for (const DiskId k : assignment) EXPECT_NE(k, kInvalidDisk);
  }
}

TEST(WscUnderFaults, UncoverableRequestsAreReportedNotAsserted) {
  // Data 0 lives only on disk 0: with it down the request cannot be
  // covered. The scheduler must still assign the rest of the batch.
  testing::ScriptedFleet fleet(testing::example_placement());
  fault::FailureView fv(4);
  fv.set_health(0.0, 0, fault::DiskHealth::kDown);
  fleet.view.set_failure_view(&fv);
  WscBatchScheduler sched;
  const auto batch = batch_for({0, 1, 2});
  std::vector<DiskId> assignment;
  ASSERT_NO_THROW(assignment = sched.assign(batch, fleet.view));
  expect_valid_assignment(assignment, batch, fleet.placement, fv);
  EXPECT_EQ(assignment[0], kInvalidDisk);  // data 0: no live replica
  EXPECT_NE(assignment[1], kInvalidDisk);
  EXPECT_NE(assignment[2], kInvalidDisk);
}

TEST(WscUnderFaults, TotalOutageReportsEveryRequest) {
  testing::ScriptedFleet fleet(testing::example_placement());
  fault::FailureView fv(4);
  for (DiskId k = 0; k < 4; ++k) fv.set_health(0.0, k, fault::DiskHealth::kDown);
  fleet.view.set_failure_view(&fv);
  WscBatchScheduler sched;
  const auto batch = batch_for({0, 1, 2, 3, 4, 5});
  std::vector<DiskId> assignment;
  ASSERT_NO_THROW(assignment = sched.assign(batch, fleet.view));
  for (const DiskId k : assignment) EXPECT_EQ(k, kInvalidDisk);
}

TEST(WscUnderFaults, LatentSectorRangeExcludesOnlyTheCoveredBlocks) {
  // Blocks [1, 2] on disk 0 go unreadable: data 1 and 2 must be served
  // from their surviving replicas, data 4 may still use disk 0.
  testing::ScriptedFleet fleet(testing::example_placement());
  fault::FailureView fv(4);
  fv.add_lost_range(0.0, 0, 1, 2);
  fleet.view.set_failure_view(&fv);
  WscBatchScheduler sched;
  const auto batch = batch_for({1, 2, 4});
  const auto assignment = sched.assign(batch, fleet.view);
  expect_valid_assignment(assignment, batch, fleet.placement, fv);
  EXPECT_NE(assignment[0], 0u);
  EXPECT_NE(assignment[1], 0u);
  for (const DiskId k : assignment) EXPECT_NE(k, kInvalidDisk);
}

}  // namespace
}  // namespace eas::core
