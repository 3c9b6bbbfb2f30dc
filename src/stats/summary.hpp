// Streaming summary statistics (Welford) and exact percentile stores.
//
// Response-time figures in the paper report means (Fig 8/16), tail
// percentiles (Fig 13) and full inverse CDFs (Fig 12); SummaryStats covers
// the former, SampleStore the latter two. At the paper's scale (70k requests)
// storing every sample exactly is cheaper than approximating.
#pragma once

#include <cstddef>
#include <vector>

namespace eas::stats {

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
class SummaryStats {
 public:
  void add(double x);
  void merge(const SummaryStats& other);
  /// Merge as an operator, so per-worker metric shards combine with the
  /// same spelling as counters: `total += shard;`.
  SummaryStats& operator+=(const SummaryStats& other) {
    merge(other);
    return *this;
  }

  std::size_t count() const { return n_; }
  double mean() const;
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(n_); }
  /// Coefficient of variation (stddev / mean); 0 when the mean is 0.
  double cv() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores every sample for exact quantiles and inverse-CDF dumps.
class SampleStore {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }
  /// Appends the other store's samples in their insertion order (so merging
  /// shards in a fixed order keeps mean() bit-reproducible).
  SampleStore& operator+=(const SampleStore& other);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;

  /// Exact quantile by linear interpolation between order statistics;
  /// q in [0, 1]. Must not be called on an empty store. Indexes the sorted
  /// cache when it is built; otherwise selects the two order statistics
  /// (std::nth_element, then a min over the part above) in the cache
  /// buffer, O(n) per call instead of an O(n log n) sort. Either way the
  /// result is the same double.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

  /// Fraction of samples strictly greater than x — the paper's
  /// P[response time > x] inverse CDF (Fig 12).
  double fraction_above(double x) const;

  /// All samples in ascending order (lazily built, cached). The insertion
  /// order of `samples_` is never disturbed, so mean() sums in completion
  /// order and is reproducible bit-for-bit regardless of whether quantiles
  /// were queried first. The lazy build, like quantile()'s selection in the
  /// same buffer, is not thread-safe: callers sharing a store across
  /// threads must materialize the cache once (call sorted()) while still
  /// single-threaded — SweepRunner does this before publishing a result.
  const std::vector<double>& sorted() const;

 private:
  /// What `cache_` holds relative to `samples_`.
  enum class Cache : unsigned char {
    kStale,     ///< nothing usable: samples were added since
    kPermuted,  ///< the samples in some order (quantile() selected in it)
    kSorted,    ///< the samples in ascending order
  };

  std::vector<double> samples_;  ///< insertion (completion) order
  mutable std::vector<double> cache_;
  mutable Cache state_ = Cache::kSorted;
};

}  // namespace eas::stats
