// Tests for Eq. 3 / Eq. 5 / Eq. 6 — the paper's energy accounting.
#include <gtest/gtest.h>

#include <limits>

#include "core/energy_model.hpp"
#include "util/check.hpp"

namespace eas::core {
namespace {

disk::DiskPowerParams power() {
  disk::DiskPowerParams p;
  p.idle_watts = 10.0;
  p.active_watts = 12.0;
  p.standby_watts = 1.0;
  p.spinup_watts = 20.0;
  p.spindown_watts = 10.0;
  p.spinup_seconds = 6.0;
  p.spindown_seconds = 4.0;
  return p;  // E = 160 J, T_B = 16 s, window = 26 s, ceiling = 320 J
}

// ------------------------------------------------------------------ Eq. 3

TEST(PairwiseSaving, CaseIIICloseSuccessorSavesAlmostEverything) {
  // dt < T_B: X = E + (T_B - dt) * P_I.
  EXPECT_DOUBLE_EQ(pairwise_energy_saving(100.0, 102.0, power()),
                   160.0 + 14.0 * 10.0);
}

TEST(PairwiseSaving, SimultaneousSuccessorSavesTheCeiling) {
  EXPECT_DOUBLE_EQ(pairwise_energy_saving(5.0, 5.0, power()), 320.0);
}

TEST(PairwiseSaving, CaseIIInsideWindowBeyondBreakeven) {
  // T_B < dt < T_B + T_up + T_down: still positive, linearly shrinking.
  const double x = pairwise_energy_saving(0.0, 20.0, power());
  EXPECT_DOUBLE_EQ(x, 160.0 + (16.0 - 20.0) * 10.0);  // 120
  EXPECT_GT(x, 0.0);
}

TEST(PairwiseSaving, CaseIOutsideWindowSavesNothing) {
  EXPECT_DOUBLE_EQ(pairwise_energy_saving(0.0, 26.0, power()), 0.0);
  EXPECT_DOUBLE_EQ(pairwise_energy_saving(0.0, 1000.0, power()), 0.0);
}

TEST(PairwiseSaving, ContinuousAtTheWindowBoundary) {
  const double eps = 1e-9;
  const double just_inside = pairwise_energy_saving(0.0, 26.0 - eps, power());
  EXPECT_NEAR(just_inside, 160.0 - 10.0 * 10.0, 1e-5);  // 60 J at boundary
}

TEST(PairwiseSaving, MonotoneNonIncreasingInGap) {
  double prev = pairwise_energy_saving(0.0, 0.0, power());
  for (double dt = 0.5; dt < 30.0; dt += 0.5) {
    const double x = pairwise_energy_saving(0.0, dt, power());
    EXPECT_LE(x, prev + 1e-12);
    prev = x;
  }
}

TEST(PairwiseSaving, RejectsNegativeGap) {
  EXPECT_THROW(pairwise_energy_saving(5.0, 4.0, power()), InvariantError);
}

TEST(PairwiseSaving, InfiniteSuccessorMeansNoSaving) {
  EXPECT_DOUBLE_EQ(pairwise_energy_saving(
                       0.0, std::numeric_limits<double>::infinity(), power()),
                   0.0);
}

TEST(PairwiseConsumption, ComplementsSavingToTheCeiling) {
  for (double dt : {0.0, 3.0, 16.0, 20.0, 26.0, 100.0}) {
    EXPECT_DOUBLE_EQ(pairwise_energy_saving(0.0, dt, power()) +
                         pairwise_energy_consumption(0.0, dt, power()),
                     power().max_request_energy());
  }
}

TEST(PairwiseConsumption, InWindowConsumptionIsIdleEnergy) {
  // Lemma 1 cases II/III: consumption = (tj - ti) * P_I.
  EXPECT_DOUBLE_EQ(pairwise_energy_consumption(0.0, 2.0, power()), 20.0);
  EXPECT_DOUBLE_EQ(pairwise_energy_consumption(0.0, 20.0, power()), 200.0);
}

// ------------------------------------------------------------------ Eq. 5

TEST(MarginalCost, ActiveAndSpinningUpAreFree) {
  disk::DiskStatus s;
  s.state = disk::DiskState::Active;
  EXPECT_DOUBLE_EQ(marginal_energy_cost(s, 100.0, power()), 0.0);
  s.state = disk::DiskState::SpinningUp;
  EXPECT_DOUBLE_EQ(marginal_energy_cost(s, 100.0, power()), 0.0);
}

TEST(MarginalCost, StandbyCostsAFullWakeCycle) {
  disk::DiskStatus s;
  s.state = disk::DiskState::Standby;
  EXPECT_DOUBLE_EQ(marginal_energy_cost(s, 100.0, power()),
                   160.0 + 16.0 * 10.0);
  s.state = disk::DiskState::SpinningDown;
  EXPECT_DOUBLE_EQ(marginal_energy_cost(s, 100.0, power()), 320.0);
}

TEST(MarginalCost, IdleCostsTheWindowExtension) {
  disk::DiskStatus s;
  s.state = disk::DiskState::Idle;
  s.last_request_time = 90.0;
  EXPECT_DOUBLE_EQ(marginal_energy_cost(s, 100.0, power()), 100.0);
}

TEST(MarginalCost, FreshIdleDiskUsesIdleStartAsReference) {
  disk::DiskStatus s;
  s.state = disk::DiskState::Idle;
  s.last_request_time = -1.0;  // never served
  s.state_since = 95.0;
  EXPECT_DOUBLE_EQ(marginal_energy_cost(s, 100.0, power()), 50.0);
}

TEST(MarginalCost, JustServedIdleDiskIsNearlyFree) {
  disk::DiskStatus s;
  s.state = disk::DiskState::Idle;
  s.last_request_time = 100.0;
  EXPECT_DOUBLE_EQ(marginal_energy_cost(s, 100.0, power()), 0.0);
}

TEST(MarginalCost, SchedulerPreference) {
  // §3.3's observation: spinning-up beats idle beats standby for a loaded
  // choice; an idle disk with a long-open window approaches standby cost.
  disk::DiskStatus spinning_up{disk::DiskState::SpinningUp, 0.0, -1.0, 0};
  disk::DiskStatus idle{disk::DiskState::Idle, 0.0, 95.0, 0};
  disk::DiskStatus standby{disk::DiskState::Standby, 0.0, -1.0, 0};
  const double now = 100.0;
  EXPECT_LT(marginal_energy_cost(spinning_up, now, power()),
            marginal_energy_cost(idle, now, power()));
  EXPECT_LT(marginal_energy_cost(idle, now, power()),
            marginal_energy_cost(standby, now, power()));
}

// ------------------------------------------------------------------ Eq. 6

TEST(CompositeCost, AlphaOneIsPureEnergy) {
  disk::DiskStatus s{disk::DiskState::Standby, 0.0, -1.0, 7};
  const double c = composite_cost(s, 0.0, power(), CostParams{1.0, 100.0});
  EXPECT_DOUBLE_EQ(c, 320.0 / 100.0);
}

TEST(CompositeCost, AlphaZeroIsPureQueueLength) {
  disk::DiskStatus s{disk::DiskState::Standby, 0.0, -1.0, 7};
  const double c = composite_cost(s, 0.0, power(), CostParams{0.0, 100.0});
  EXPECT_DOUBLE_EQ(c, 7.0);
}

TEST(CompositeCost, BetaScalesOnlyTheEnergyTerm) {
  disk::DiskStatus s{disk::DiskState::Standby, 0.0, -1.0, 2};
  const CostParams a{0.5, 10.0}, b{0.5, 1000.0};
  const double ca = composite_cost(s, 0.0, power(), a);
  const double cb = composite_cost(s, 0.0, power(), b);
  EXPECT_DOUBLE_EQ(ca - cb, 0.5 * 320.0 * (1.0 / 10.0 - 1.0 / 1000.0));
}

TEST(CompositeCost, RejectsBadParams) {
  disk::DiskStatus s;
  EXPECT_THROW(composite_cost(s, 0.0, power(), CostParams{-0.1, 100.0}),
               InvariantError);
  EXPECT_THROW(composite_cost(s, 0.0, power(), CostParams{1.1, 100.0}),
               InvariantError);
  EXPECT_THROW(composite_cost(s, 0.0, power(), CostParams{0.5, 0.0}),
               InvariantError);
}

}  // namespace
}  // namespace eas::core
