// Tests for the Zipf sampler that drives data placement and popularity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace eas::util {
namespace {

TEST(ZipfSampler, PmfSumsToOne) {
  for (double z : {0.0, 0.5, 1.0, 2.0}) {
    ZipfSampler zipf(100, z);
    double total = 0.0;
    for (std::size_t r = 0; r < 100; ++r) total += zipf.pmf(r);
    EXPECT_NEAR(total, 1.0, 1e-12) << "z=" << z;
  }
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  ZipfSampler zipf(50, 0.0);
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_NEAR(zipf.pmf(r), 1.0 / 50.0, 1e-12);
  }
}

TEST(ZipfSampler, ClassicZipfRatioBetweenRanks) {
  // With z = 1, p(rank 1) / p(rank 10) = 10.
  ZipfSampler zipf(1000, 1.0);
  EXPECT_NEAR(zipf.pmf(0) / zipf.pmf(9), 10.0, 1e-9);
}

TEST(ZipfSampler, PmfIsMonotoneNonIncreasing) {
  ZipfSampler zipf(200, 0.8);
  for (std::size_t r = 1; r < 200; ++r) {
    EXPECT_LE(zipf.pmf(r), zipf.pmf(r - 1) + 1e-15);
  }
}

TEST(ZipfSampler, SampleFrequenciesMatchPmf) {
  ZipfSampler zipf(20, 1.0);
  Rng rng(7);
  std::vector<int> counts(20, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 0; r < 20; ++r) {
    const double expected = zipf.pmf(r) * n;
    EXPECT_NEAR(counts[r], expected, 5.0 * std::sqrt(expected) + 5.0)
        << "rank " << r;
  }
}

TEST(ZipfSampler, SingleRankAlwaysSamplesZero) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
  EXPECT_DOUBLE_EQ(zipf.pmf(0), 1.0);
}

TEST(ZipfSampler, RejectsDegenerateArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), InvariantError);
  EXPECT_THROW(ZipfSampler(10, -0.1), InvariantError);
}

TEST(ZipfSampler, HighSkewConcentratesOnHeadRanks) {
  ZipfSampler zipf(10000, 1.2);
  Rng rng(3);
  int in_top_100 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (zipf.sample(rng) < 100) ++in_top_100;
  }
  // 1% of ranks should draw well over a third of the mass at z=1.2.
  EXPECT_GT(in_top_100 / static_cast<double>(n), 0.35);
}

/// The sampler's CDF, rebuilt with the constructor's own arithmetic.
std::vector<double> reference_cdf(std::size_t n, double z) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), z);
    cdf[r] = acc;
  }
  for (auto& v : cdf) v /= acc;
  cdf.back() = 1.0;
  return cdf;
}

/// The inverse the guide table replaced: a binary search for the first rank
/// whose CDF reaches u, clamped to the last rank.
std::size_t reference_rank(const std::vector<double>& cdf, double u) {
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  return static_cast<std::size_t>(it - cdf.begin());
}

/// Every u that sits on an edge of the guide table or of the CDF: 0, each
/// cdf[r] and the double just below it, each cut j/n and its neighbours in
/// [0, 1], and the largest draw below 1.
std::vector<double> boundary_draws(const std::vector<double>& cdf) {
  const std::size_t n = cdf.size();
  std::vector<double> us = {0.0, 1.0 - 0x1.0p-53};
  for (const double c : cdf) {
    us.push_back(c);
    us.push_back(std::nextafter(c, 0.0));
  }
  for (std::size_t j = 0; j <= n; ++j) {
    const double cut = static_cast<double>(j) / static_cast<double>(n);
    for (const double u :
         {std::nextafter(cut, 0.0), cut, std::nextafter(cut, 2.0)}) {
      if (u >= 0.0 && u <= 1.0) us.push_back(u);
    }
  }
  return us;
}

void expect_matches_reference(std::size_t n, double z, std::uint64_t seed,
                              int draws) {
  const ZipfSampler zipf(n, z);
  const auto cdf = reference_cdf(n, z);
  ASSERT_EQ(zipf.pmf(0), cdf[0]) << "n=" << n << " z=" << z;
  std::size_t mismatches = 0;
  for (const double u : boundary_draws(cdf)) {
    if (zipf.rank_of(u) != reference_rank(cdf, u) && ++mismatches <= 3) {
      ADD_FAILURE() << "n=" << n << " z=" << z << " u=" << u
                    << ": rank_of " << zipf.rank_of(u) << ", lower_bound "
                    << reference_rank(cdf, u);
    }
  }
  Rng rng(seed);
  Rng ref_rng(seed);
  for (int i = 0; i < draws; ++i) {
    const std::size_t got = zipf.sample(rng);
    const std::size_t want = reference_rank(cdf, ref_rng.next_double());
    if (got != want && ++mismatches <= 3) {
      ADD_FAILURE() << "n=" << n << " z=" << z << " draw " << i << ": sample "
                    << got << ", lower_bound " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "n=" << n << " z=" << z;
}

TEST(ZipfSampler, GuideTableMatchesLowerBoundReference) {
  std::uint64_t seed = 1;
  for (const std::size_t n : {1, 2, 3, 7, 180, 1000, 32768}) {
    for (const double z : {0.0, 0.5, 0.9, 1.0, 2.0, 4.0}) {
      expect_matches_reference(n, z, seed++, 1 << 20);
    }
  }
  // ⌊u·n⌋ rounds up across a cut only when a CDF value sits one double below
  // that cut, which none of the grid's samplers has. These exponents were
  // searched so that cdf[0] is the double just below 75/180 (resp. 343/1000)
  // while cdf[0]·n still rounds to 75 (343): the guide entry overshoots rank
  // 0, and only the backward walk returns it.
  const struct {
    std::size_t n;
    double z;
    std::size_t cut;
  } overshoots[] = {{180, 1.5228846165961119, 75},
                    {1000, 1.4069783433438001, 343}};
  for (const auto& o : overshoots) {
    const ZipfSampler zipf(o.n, o.z);
    const double cut = static_cast<double>(o.cut) / static_cast<double>(o.n);
    const double u = zipf.pmf(0);  // == cdf[0]
    ASSERT_EQ(u, std::nextafter(cut, 0.0)) << "n=" << o.n;
    ASSERT_EQ(static_cast<std::size_t>(u * static_cast<double>(o.n)), o.cut);
    EXPECT_EQ(zipf.rank_of(u), 0u) << "n=" << o.n;
    expect_matches_reference(o.n, o.z, seed++, 1 << 16);
  }
}

}  // namespace
}  // namespace eas::util
