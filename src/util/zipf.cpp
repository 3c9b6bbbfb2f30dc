#include "util/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace eas::util {

ZipfSampler::ZipfSampler(std::size_t n, double z) : z_(z) {
  EAS_REQUIRE_MSG(n >= 1, "ZipfSampler needs at least one rank");
  EAS_REQUIRE_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                  "ZipfSampler ranks must fit 32 bits");
  EAS_REQUIRE_MSG(z >= 0.0, "Zipf exponent must be non-negative");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), z);
    cdf_[r] = acc;
  }
  for (auto& v : cdf_) v /= acc;
  cdf_.back() = 1.0;  // guard against rounding in the final bucket

  // cdf_.back() == 1.0 >= j/n, so the scan stops inside the table.
  guide_.resize(n);
  std::size_t r = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double cut = static_cast<double>(j) / static_cast<double>(n);
    while (cdf_[r] < cut) ++r;
    guide_[j] = static_cast<std::uint32_t>(r);
  }
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  return rank_of(rng.next_double());
}

std::size_t ZipfSampler::rank_of(double u) const {
  EAS_ASSERT_MSG(u >= 0.0 && u <= 1.0, "rank_of needs u in [0, 1], got " << u);
  const std::size_t n = cdf_.size();
  // guide_[⌊u·n⌋] is at or before the answer, so the forward walk to the
  // first cdf_ >= u finds it, unless u·n rounds up across a cut: then the
  // guess can overshoot, and the backward walk steps back over ranks that
  // also reach u. Either way the result is exactly the lower_bound rank.
  // u = 1 gives ⌊u·n⌋ = n, hence the clamp; cdf_.back() == 1.0 >= u stops
  // the forward walk inside the table.
  std::size_t i = guide_[std::min(
      n - 1, static_cast<std::size_t>(u * static_cast<double>(n)))];
  while (cdf_[i] < u) ++i;
  while (i > 0 && cdf_[i - 1] >= u) --i;
  return i;
}

double ZipfSampler::pmf(std::size_t rank) const {
  EAS_REQUIRE(rank < cdf_.size());
  const double hi = cdf_[rank];
  const double lo = rank == 0 ? 0.0 : cdf_[rank - 1];
  return hi - lo;
}

}  // namespace eas::util
