// Zipf(-like) sampling over ranked items.
//
// The paper places "original" data copies on disks drawn from a Zipf-like
// distribution p(r) = c / r^z over disk ranks r = 1..K (§4.2, Appendix A.1),
// with z swept from 0 (uniform) to 1 (classic Zipf). The same family models
// data popularity in the synthetic traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace eas::util {

/// Samples ranks 1..n with P(rank = r) ∝ 1 / r^z.
///
/// Inverts a precomputed CDF through a cut-point guide table: guide entry j
/// holds the first rank whose CDF reaches j/n, so a draw u starts at entry
/// ⌊u·n⌋ and walks a couple of ranks on average instead of binary-searching
/// all n. Construction is O(n) in time and 12 bytes per rank in memory; the
/// rank returned is exactly the first one with CDF >= u.
class ZipfSampler {
 public:
  /// @param n  number of ranks (must be >= 1 and fit 32 bits)
  /// @param z  skew exponent; 0 gives the uniform distribution.
  ZipfSampler(std::size_t n, double z);

  /// Returns a 0-based rank in [0, n).
  std::size_t sample(Rng& rng) const;

  /// The 0-based rank a uniform draw u in [0, 1] maps to: the first rank
  /// whose CDF is >= u.
  std::size_t rank_of(double u) const;

  /// Probability mass of 0-based rank r.
  double pmf(std::size_t rank) const;

  std::size_t size() const { return cdf_.size(); }
  double exponent() const { return z_; }

 private:
  double z_;
  std::vector<double> cdf_;           // normalised inclusive prefix sums
  std::vector<std::uint32_t> guide_;  // guide_[j]: first rank, cdf_ >= j/n
};

}  // namespace eas::util
