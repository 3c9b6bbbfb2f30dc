// Logarithmically-binned histogram for latency-style quantities.
//
// Response times in the evaluation span 5+ orders of magnitude (sub-ms disk
// hits up to ~15 s spin-up penalties, Fig 12), so bins grow geometrically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eas::stats {

/// Histogram with geometric bin edges between [min_value, max_value].
/// Values outside the range are clamped into the first/last bin, never lost.
class Histogram {
 public:
  /// @param min_value  lower edge of the first bin (> 0)
  /// @param max_value  upper edge of the last bin (> min_value)
  /// @param bins_per_decade  resolution; 10 gives ~26% wide bins
  Histogram(double min_value, double max_value, int bins_per_decade = 10);

  void add(double value, std::uint64_t count = 1);

  /// Bin-wise merge. Requires identical binning (same min/max/resolution);
  /// throws InvariantError otherwise — silently re-binning would corrupt
  /// quantile estimates.
  Histogram& operator+=(const Histogram& other);

  std::uint64_t total_count() const { return total_; }
  std::size_t num_bins() const { return counts_.size(); }
  std::uint64_t bin_count(std::size_t bin) const { return counts_[bin]; }

  /// Geometric midpoint of a bin, used as its representative value.
  double bin_mid(std::size_t bin) const;
  double bin_lower(std::size_t bin) const;
  double bin_upper(std::size_t bin) const;

  /// Approximate quantile from bin midpoints; q in [0,1].
  double quantile_estimate(double q) const;

 private:
  std::size_t bin_for(double value) const;

  double log_min_;
  double log_step_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace eas::stats
