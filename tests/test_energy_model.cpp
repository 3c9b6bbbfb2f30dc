// Tests for Eq. 3 / Eq. 5 / Eq. 6 — the paper's energy accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "core/energy_model.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

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

TEST(CostModel, RejectsBadParamsOnceAtConstruction) {
  EXPECT_THROW(CostModel(power(), CostParams{-0.1, 100.0}), InvariantError);
  EXPECT_THROW(CostModel(power(), CostParams{1.1, 100.0}), InvariantError);
  EXPECT_THROW(CostModel(power(), CostParams{0.5, 0.0}), InvariantError);
  EXPECT_NO_THROW(CostModel(power(), CostParams{0.0, 1e-9}));
  EXPECT_NO_THROW(CostModel(power(), CostParams{1.0, 100.0}));
}

// The Eq. 5 and Eq. 6 bodies as they were written before CostModel, copied
// literally: the model must reproduce them bit for bit.
double literal_marginal_energy_cost(const disk::DiskStatus& s, double now,
                                    const disk::DiskPowerParams& p) {
  switch (s.state) {
    case disk::DiskState::Active:
    case disk::DiskState::SpinningUp:
      return 0.0;
    case disk::DiskState::Standby:
    case disk::DiskState::SpinningDown:
      return p.transition_energy() + p.breakeven_seconds() * p.idle_watts;
    case disk::DiskState::Idle: {
      const double t_last =
          s.last_request_time >= 0.0 ? s.last_request_time : s.state_since;
      const double extension = std::max(0.0, (now - t_last) * p.idle_watts);
      return std::min(extension,
                      p.transition_energy() +
                          p.breakeven_seconds() * p.idle_watts);
    }
  }
  return 0.0;
}

double literal_composite_cost(const disk::DiskStatus& s, double now,
                              const disk::DiskPowerParams& p,
                              const CostParams& cp) {
  EAS_REQUIRE_MSG(cp.beta > 0.0, "beta must be positive");
  EAS_REQUIRE_MSG(cp.alpha >= 0.0 && cp.alpha <= 1.0,
                  "alpha must lie in [0,1], got " << cp.alpha);
  const double energy = literal_marginal_energy_cost(s, now, p);
  const double perf = static_cast<double>(s.queued_requests);
  return energy * cp.alpha / cp.beta + perf * (1.0 - cp.alpha);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(CostModel, MatchesTheLiteralFormulaBitForBitOnRandomRows) {
  constexpr disk::DiskState kStates[] = {
      disk::DiskState::Standby, disk::DiskState::SpinningUp,
      disk::DiskState::Idle, disk::DiskState::Active,
      disk::DiskState::SpinningDown};
  util::Rng rng(2011);
  std::size_t capped = 0;
  std::size_t before_last = 0;
  std::size_t never_served = 0;
  for (int model = 0; model < 200; ++model) {
    disk::DiskPowerParams p;
    p.idle_watts = rng.uniform(0.5, 20.0);
    p.spinup_watts = rng.uniform(0.0, 40.0);
    p.spindown_watts = rng.uniform(0.0, 20.0);
    p.spinup_seconds = rng.uniform(0.0, 15.0);
    p.spindown_seconds = rng.uniform(0.0, 10.0);
    if (model % 4 == 0) p.breakeven_override_seconds = rng.uniform(0.0, 40.0);
    constexpr double kAlphas[] = {0.0, 1.0, 0.2, 0.5};
    const CostParams cp{model % 5 < 4 ? kAlphas[model % 4]
                                      : rng.uniform(0.0, 1.0),
                        model % 3 == 0 ? 100.0 : rng.uniform(1e-3, 1e3)};
    const CostModel cost_model(p, cp);
    const CostModel energy_model(p);
    const double wake =
        p.transition_energy() + p.breakeven_seconds() * p.idle_watts;
    for (int row = 0; row < 100; ++row) {
      const double now = rng.uniform(0.0, 500.0);
      disk::DiskStatus s;
      s.state = kStates[rng.next_below(5)];
      s.state_since = rng.uniform(0.0, 500.0);
      // Idle disks that never served a request fall back to state_since;
      // T_last can lie after `now`.
      s.last_request_time = rng.bernoulli(0.25) ? -1.0
                                                : rng.uniform(0.0, 500.0);
      s.queued_requests = static_cast<std::size_t>(rng.next_below(6));
      const double literal_energy = literal_marginal_energy_cost(s, now, p);
      ASSERT_EQ(bits(energy_model.energy(s, now)), bits(literal_energy))
          << "model " << model << " row " << row;
      ASSERT_EQ(bits(cost_model.energy(s, now)), bits(literal_energy));
      ASSERT_EQ(bits(marginal_energy_cost(s, now, p)), bits(literal_energy));
      const double literal_cost = literal_composite_cost(s, now, p, cp);
      ASSERT_EQ(bits(cost_model.cost(s, now)), bits(literal_cost))
          << "model " << model << " row " << row;
      ASSERT_EQ(bits(composite_cost(s, now, p, cp)), bits(literal_cost));
      if (s.state == disk::DiskState::Idle) {
        const double t_last = s.last_request_time >= 0.0
                                  ? s.last_request_time
                                  : s.state_since;
        if (s.last_request_time < 0.0) ++never_served;
        if (now < t_last) ++before_last;
        if (literal_energy == wake && wake > 0.0) ++capped;
      }
    }
  }
  // Every edge the rows were drawn to reach was reached.
  EXPECT_GT(never_served, 100u);
  EXPECT_GT(before_last, 100u);
  EXPECT_GT(capped, 100u);
}

}  // namespace
}  // namespace eas::core
