// Contract-layer tests: prove that every instrumented invariant actually
// fires on violation, with a diagnostic a human can act on (exception mode —
// EAS_* contracts throw eas::InvariantError rather than aborting, exactly so
// these tests can observe them).
#include <gtest/gtest.h>

#include <string>

#include "disk/disk.hpp"
#include "graph/mwis.hpp"
#include "graph/set_cover.hpp"
#include "placement/placement.hpp"
#include "reference_solvers.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace eas {
namespace {

/// Runs `fn`, expecting InvariantError whose message contains every needle.
template <typename Fn>
void expect_contract_failure(Fn fn,
                             const std::vector<std::string>& needles) {
  try {
    fn();
    FAIL() << "expected InvariantError, nothing thrown";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    for (const auto& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "diagnostic missing '" << needle << "': " << what;
    }
  }
}

// --- macro semantics --------------------------------------------------------

TEST(ContractMacros, KindsAreLabelled) {
  expect_contract_failure([] { EAS_REQUIRE(1 == 2); },
                          {"precondition violated", "1 == 2"});
  expect_contract_failure([] { EAS_ENSURE(2 == 3); },
                          {"postcondition violated", "2 == 3"});
  expect_contract_failure([] { EAS_CHECK(3 == 4); },
                          {"invariant violated", "3 == 4"});
}

TEST(ContractMacros, MessagesCarryStreamedContextAndLocation) {
  expect_contract_failure(
      [] {
        const int queue_depth = 7;
        EAS_REQUIRE_MSG(queue_depth == 0, "queue depth " << queue_depth);
      },
      {"precondition violated", "queue_depth == 0", "queue depth 7",
       "test_contracts.cpp"});
}

TEST(ContractMacros, AssertAndAuditFollowAuditTier) {
  if constexpr (audit_enabled()) {
    EXPECT_THROW([] { EAS_ASSERT(false); }(), InvariantError);
    EXPECT_THROW([] { EAS_AUDIT(false); }(), InvariantError);
  } else {
    EXPECT_NO_THROW([] { EAS_ASSERT(false); }());
    EXPECT_NO_THROW([] { EAS_AUDIT(false); }());
  }
  // The expression must not be evaluated when the tier is compiled out.
  int evaluations = 0;
  auto touch = [&evaluations] {
    ++evaluations;
    return true;
  };
  EAS_ASSERT(touch());
  static_cast<void>(touch);  // unreferenced when the tier is compiled out
  EXPECT_EQ(evaluations, audit_enabled() ? 1 : 0);
}

// --- disk power-state machine ----------------------------------------------

TEST(DiskContracts, SpinDownWhileActiveIsRejected) {
  sim::Simulator sim;
  disk::Disk d(/*id=*/3, sim, disk::DiskPowerParams{}, disk::DiskPerfParams{},
               disk::DiskState::Idle);
  disk::Request r;
  r.id = 1;
  r.data = 0;
  d.submit(r);  // Idle -> Active, service event pending
  ASSERT_EQ(d.state(), disk::DiskState::Active);
  expect_contract_failure([&] { d.spin_down(); },
                          {"precondition violated", "spin_down from active",
                           "disk 3"});
}

TEST(DiskContracts, DoubleSpinDownIsRejected) {
  sim::Simulator sim;
  disk::Disk d(/*id=*/0, sim, disk::DiskPowerParams{}, disk::DiskPerfParams{},
               disk::DiskState::Idle);
  d.spin_down();  // legal: Idle -> SpinningDown
  expect_contract_failure([&] { d.spin_down(); },
                          {"spin_down from spin-down"});
}

TEST(DiskContracts, DisksMustStartSettled) {
  sim::Simulator sim;
  EXPECT_THROW(disk::Disk(0, sim, disk::DiskPowerParams{},
                          disk::DiskPerfParams{}, disk::DiskState::Active),
               InvariantError);
}

TEST(DiskContracts, MeaninglessPowerParamsAreRejected) {
  disk::DiskPowerParams p;
  p.standby_watts = p.idle_watts + 1.0;  // standby hotter than idle
  EXPECT_THROW(p.validate(), InvariantError);
}

// --- simulator kernel -------------------------------------------------------

TEST(SimulatorContracts, SchedulingInThePastIsRejected) {
  sim::Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  ASSERT_DOUBLE_EQ(sim.now(), 5.0);
  expect_contract_failure([&] { sim.schedule_at(1.0, [] {}); },
                          {"precondition violated", "when=1", "now=5"});
}

TEST(SimulatorContracts, NegativeDelayAndNullCallbackAreRejected) {
  sim::Simulator sim;
  expect_contract_failure([&] { sim.schedule_in(-0.5, [] {}); },
                          {"negative delay"});
  EXPECT_THROW(sim.schedule_at(1.0, sim::Simulator::Callback{}),
               InvariantError);
}

TEST(SimulatorContracts, RunUntilCannotRewindTheClock) {
  sim::Simulator sim;
  sim.run_until(10.0);
  EXPECT_THROW(sim.run_until(9.0), InvariantError);
}

// --- WSC cover validity -----------------------------------------------------

namespace {
graph::SetCoverInstance small_instance() {
  return graph::make_set_cover(4, {{1.0, {0, 1}}, {1.0, {2}}, {1.0, {3}}});
}
}  // namespace

TEST(CoverContracts, ValidCoverPasses) {
  const auto instance = small_instance();
  const auto sol = graph::greedy_weighted_set_cover(instance);
  EXPECT_NO_THROW(graph::check_cover(sol, instance));
}

TEST(CoverContracts, NonCoveringResultTripsWithUncoveredElement) {
  const auto instance = small_instance();
  auto sol = graph::greedy_weighted_set_cover(instance);
  // Forge a bad result: drop the set that covers element 3.
  std::erase(sol.chosen_sets, std::size_t{2});
  expect_contract_failure(
      [&] { graph::check_cover(sol, instance); },
      {"postcondition violated", "leaves element 3 uncovered"});
}

TEST(CoverContracts, OutOfRangeSetIsNamed) {
  const auto instance = small_instance();
  graph::SetCoverSolution sol;
  sol.chosen_sets = {7};
  expect_contract_failure([&] { graph::check_cover(sol, instance); },
                          {"references set 7"});
}

TEST(CoverContracts, InfeasibleInstanceIsRejectedUpFront) {
  // Nothing covers element 1.
  const auto instance = graph::make_set_cover(2, {{1.0, {0}}});
  expect_contract_failure(
      [&] { graph::greedy_weighted_set_cover(instance); },
      {"precondition violated", "infeasible"});
}

// --- MWIS independence ------------------------------------------------------

TEST(MwisContracts, IndependentSolutionPasses) {
  graph::WeightedGraphBuilder b({1.0, 2.0, 3.0});
  b.add_edge(0, 1);
  const auto g = b.build();
  EXPECT_NO_THROW(graph::check_independent(g, {0, 2}));
}

TEST(MwisContracts, DependentPairTripsNamingTheEdge) {
  graph::WeightedGraphBuilder b({1.0, 2.0, 3.0});
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const auto g = b.build();
  expect_contract_failure(
      [&] { graph::check_independent(g, {0, 1}); },
      {"postcondition violated", "not independent",
       "both endpoints selected"});
}

TEST(MwisContracts, DuplicateAndOutOfRangeVerticesTrip) {
  graph::WeightedGraph g({1.0, 2.0});
  expect_contract_failure([&] { graph::check_independent(g, {0, 0}); },
                          {"appears twice"});
  expect_contract_failure([&] { graph::check_independent(g, {5}); },
                          {"out of range"});
}

TEST(MwisContracts, SolversProduceContractCleanSolutions) {
  // A 5-cycle with skewed weights: greedy and exact must both satisfy the
  // independence contract they are audited against.
  graph::WeightedGraphBuilder b({5.0, 1.0, 4.0, 2.0, 3.0});
  for (std::size_t v = 0; v < 5; ++v) b.add_edge(v, (v + 1) % 5);
  const auto g = b.build();
  for (const auto& sol : {graph::gwmin_reference(g),
                          graph::gwmin2_reference(g), graph::exact_mwis(g)}) {
    EXPECT_NO_THROW(graph::check_independent(g, sol.vertices));
  }
}

// --- placement replica bounds -----------------------------------------------

TEST(PlacementContracts, OutOfRangeReplicaTrips) {
  expect_contract_failure(
      [] { placement::PlacementMap(2, {{0, 5}}); },
      {"precondition violated", "out-of-range disk 5"});
}

TEST(PlacementContracts, DuplicateReplicaTrips) {
  expect_contract_failure([] { placement::PlacementMap(4, {{1, 1}}); },
                          {"duplicate locations"});
}

TEST(PlacementContracts, EmptyReplicaListTrips) {
  expect_contract_failure([] { placement::PlacementMap(4, {{}}); },
                          {"no location"});
}

}  // namespace
}  // namespace eas
