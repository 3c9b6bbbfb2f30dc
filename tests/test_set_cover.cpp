// Tests for greedy and exact weighted set cover, including randomized
// cross-validation between the two solvers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/set_cover.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace eas::graph {
namespace {

const std::vector<SetSpec> kSimpleSets = {
    {1.0, {0, 1}},
    {1.0, {2, 3}},
    {2.5, {0, 1, 2, 3}},
    {0.4, {1}},
};

SetCoverInstance simple_instance() { return make_set_cover(4, kSimpleSets); }

TEST(SetCoverInstance, ValidateCatchesBadInput) {
  EXPECT_THROW(make_set_cover(2, {{1.0, {0, 2}}}).validate(), InvariantError);
  EXPECT_THROW(make_set_cover(2, {{-1.0, {0}}}).validate(), InvariantError);
  // Rows that disagree with each other are refused too.
  SetCoverInstance mismatched = make_set_cover(2, {{1.0, {0, 1}}});
  mismatched.weights.push_back(1.0);
  EXPECT_THROW(mismatched.validate(), InvariantError);
  EXPECT_THROW(greedy_weighted_set_cover(mismatched), InvariantError);
  // An element row naming a set that does not exist.
  SetCoverInstance stray = make_set_cover(1, {{1.0, {0}}});
  stray.element_sets[0] = 7;
  EXPECT_THROW(stray.validate(), InvariantError);
  EXPECT_THROW(greedy_weighted_set_cover(stray), InvariantError);
}

TEST(SetCoverInstance, FeasibilityDetection) {
  EXPECT_TRUE(simple_instance().feasible());
  // element 4 uncovered
  EXPECT_FALSE(make_set_cover(5, kSimpleSets).feasible());
}

TEST(SetCoverInstance, BuildsBothRowDirections) {
  const auto inst = simple_instance();
  ASSERT_EQ(inst.num_sets(), 4u);
  ASSERT_EQ(inst.num_elements(), 4u);
  for (std::size_t s = 0; s < kSimpleSets.size(); ++s) {
    EXPECT_TRUE(std::ranges::equal(inst.elements(s), kSimpleSets[s].elements))
        << "set " << s;
    EXPECT_EQ(inst.weights[s], kSimpleSets[s].weight);
  }
  // Element rows list sets ascending.
  const std::vector<std::vector<std::uint32_t>> sets_of = {
      {0, 2}, {0, 2, 3}, {1, 2}, {1, 2}};
  for (std::size_t e = 0; e < sets_of.size(); ++e) {
    EXPECT_TRUE(std::ranges::equal(inst.sets_of(e), sets_of[e]))
        << "element " << e;
  }
}

TEST(GreedySetCover, CoversEverythingAtReasonableCost) {
  const auto inst = simple_instance();
  const auto sol = greedy_weighted_set_cover(inst);
  EXPECT_TRUE(sol.covers(inst));
  // Optimal is {set0, set1} at 2.0; greedy must not exceed H_4 * OPT.
  EXPECT_LE(sol.total_weight, 2.0 * (1.0 + 0.5 + 1.0 / 3 + 0.25) + 1e-9);
}

TEST(GreedySetCover, PrefersCostEffectiveSets) {
  const auto inst = make_set_cover(3, {
                                          {3.0, {0, 1, 2}},  // ratio 1.0
                                          {0.5, {0}},        // ratio 0.5
                                          {0.5, {1}},
                                          {0.5, {2}},
                                      });
  const auto sol = greedy_weighted_set_cover(inst);
  EXPECT_TRUE(sol.covers(inst));
  EXPECT_NEAR(sol.total_weight, 1.5, 1e-12);
  EXPECT_EQ(sol.chosen_sets.size(), 3u);
}

TEST(GreedySetCover, ZeroWeightSetsAreFree) {
  const auto inst = make_set_cover(3, {
                                          {0.0, {0, 1}},
                                          {5.0, {0, 1, 2}},
                                          {1.0, {2}},
                                      });
  const auto sol = greedy_weighted_set_cover(inst);
  EXPECT_TRUE(sol.covers(inst));
  EXPECT_NEAR(sol.total_weight, 1.0, 1e-12);
}

TEST(GreedySetCover, ThrowsOnInfeasible) {
  const auto inst = make_set_cover(2, {{1.0, {0}}});
  EXPECT_THROW(greedy_weighted_set_cover(inst), InvariantError);
}

TEST(GreedySetCover, HandlesDuplicateElementsWithinASet) {
  const auto inst = make_set_cover(2, {{1.0, {0, 0, 1}}});
  const auto sol = greedy_weighted_set_cover(inst);
  EXPECT_TRUE(sol.covers(inst));
  EXPECT_EQ(sol.chosen_sets.size(), 1u);
}

TEST(ExactSetCover, FindsTheOptimum) {
  const auto sol = exact_set_cover(simple_instance());
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->total_weight, 2.0, 1e-12);
}

TEST(ExactSetCover, ReturnsNulloptOnInfeasible) {
  const auto inst = make_set_cover(3, {{1.0, {0, 1}}});
  EXPECT_FALSE(exact_set_cover(inst).has_value());
}

TEST(ExactSetCover, RefusesOversizedInstances) {
  const auto inst = make_set_cover(100, {});
  EXPECT_THROW(exact_set_cover(inst, 24), InvariantError);
}

class RandomSetCoverTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSetCoverTest, GreedyIsFeasibleAndWithinLnNOfExact) {
  util::Rng rng(GetParam());
  constexpr std::uint32_t kElements = 12;
  std::vector<SetSpec> sets;
  const int num_sets = 10;
  for (int s = 0; s < num_sets; ++s) {
    SetSpec set;
    set.weight = rng.uniform(0.1, 5.0);
    for (std::uint32_t e = 0; e < kElements; ++e) {
      if (rng.bernoulli(0.35)) set.elements.push_back(e);
    }
    sets.push_back(std::move(set));
  }
  // Guarantee feasibility with one expensive universal set.
  SetSpec universal;
  universal.weight = 20.0;
  for (std::uint32_t e = 0; e < kElements; ++e) {
    universal.elements.push_back(e);
  }
  sets.push_back(std::move(universal));
  const auto inst = make_set_cover(kElements, sets);

  const auto greedy = greedy_weighted_set_cover(inst);
  const auto exact = exact_set_cover(inst);
  ASSERT_TRUE(exact.has_value());
  EXPECT_TRUE(greedy.covers(inst));
  EXPECT_TRUE(exact->covers(inst));
  EXPECT_GE(greedy.total_weight, exact->total_weight - 1e-9);
  // H_12 ~ 3.10: the classic approximation guarantee.
  const double h12 = 3.1032;
  EXPECT_LE(greedy.total_weight, exact->total_weight * h12 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSetCoverTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace eas::graph
