// Streaming summary statistics (Welford) and exact percentile stores.
//
// Response-time figures in the paper report means (Fig 8/16), tail
// percentiles (Fig 13) and full inverse CDFs (Fig 12); SummaryStats covers
// the former, SampleStore the latter two. At the paper's scale (70k requests)
// storing every sample exactly is cheaper than approximating.
#pragma once

#include <cstddef>
#include <span>
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

/// Stores every sample, once, for exact quantiles and inverse-CDF dumps.
/// Queries reorder the one buffer in place; mean() reads a running sum.
/// Destruction hands a large buffer's pages back (util::release_pages).
class SampleStore {
 public:
  SampleStore() = default;
  SampleStore(const SampleStore&) = default;
  SampleStore(SampleStore&&) noexcept = default;
  SampleStore& operator=(const SampleStore&) = default;
  SampleStore& operator=(SampleStore&&) noexcept = default;
  ~SampleStore();

  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }
  /// Appends `other`'s samples, continuing the sum over them in insertion
  /// order, so a fixed merge order keeps mean() bit-reproducible. `other`
  /// must not have been queried: a query reorders its buffer.
  SampleStore& operator+=(const SampleStore& other);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  /// The insertion-order sum of the samples over count(); O(1).
  double mean() const {
    return empty() ? 0.0 : sum_ / static_cast<double>(count());
  }

  /// Exact quantile by linear interpolation between order statistics;
  /// q in [0, 1]. Must not be called on an empty store.
  double quantile(double q) const {
    double v = 0.0;
    quantiles({&q, 1}, {&v, 1});
    return v;
  }
  double median() const { return quantile(0.5); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

  /// quantile(qs[i]) into out[i] for ascending `qs`, in one pass: each
  /// selection runs above the last one's order statistic, or a sorted buffer
  /// is indexed. Both read the same two values, so give the same double.
  void quantiles(std::span<const double> qs, std::span<double> out) const;

  /// Fraction of samples strictly greater than x — the paper's
  /// P[response time > x] inverse CDF (Fig 12).
  double fraction_above(double x) const;

  /// All samples in ascending order, sorted in place once. Like quantile(),
  /// it mutates the buffer, so a store shared across threads is sorted()
  /// first while single-threaded (SweepRunner does so before publishing a
  /// result); after that every query only reads.
  const std::vector<double>& sorted() const;

 private:
  enum class Order : unsigned char { kInsertion, kPermuted, kSorted };

  mutable std::vector<double> samples_;
  double sum_ = 0.0;  ///< in insertion order
  mutable Order order_ = Order::kInsertion;
};

}  // namespace eas::stats
