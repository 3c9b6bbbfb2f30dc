#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace eas::stats {

void SummaryStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void SummaryStats::merge(const SummaryStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double SummaryStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double SummaryStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double SummaryStats::stddev() const { return std::sqrt(variance()); }

double SummaryStats::min() const { return n_ == 0 ? 0.0 : min_; }
double SummaryStats::max() const { return n_ == 0 ? 0.0 : max_; }

double SummaryStats::cv() const {
  const double m = mean();
  return m == 0.0 ? 0.0 : stddev() / m;
}

void SampleStore::add(double x) {
  samples_.push_back(x);
  state_ = Cache::kStale;
}

SampleStore& SampleStore::operator+=(const SampleStore& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  state_ = samples_.empty() ? Cache::kSorted : Cache::kStale;
  return *this;
}

double SampleStore::mean() const {
  if (samples_.empty()) return 0.0;
  double acc = 0.0;
  for (double s : samples_) acc += s;
  return acc / static_cast<double>(samples_.size());
}

const std::vector<double>& SampleStore::sorted() const {
  if (state_ != Cache::kSorted) {
    // A permuted cache already holds every sample; only a stale one needs
    // the copy.
    if (state_ == Cache::kStale) {
      cache_.assign(samples_.begin(), samples_.end());
    }
    std::sort(cache_.begin(), cache_.end());
    state_ = Cache::kSorted;
  }
  return cache_;
}

double SampleStore::quantile(double q) const {
  EAS_REQUIRE_MSG(!samples_.empty(), "quantile of empty store");
  EAS_REQUIRE_MSG(q >= 0.0 && q <= 1.0, "quantile out of range: " << q);
  const std::size_t n = samples_.size();
  if (n == 1) return samples_.front();
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (state_ == Cache::kSorted) {
    if (lo + 1 >= n) return cache_.back();
    return cache_[lo] * (1.0 - frac) + cache_[lo + 1] * frac;
  }
  // Selection instead of a sort: order statistic lo lands at cache_[lo]
  // with everything above it in cache_[lo + 1, n), whose minimum is order
  // statistic lo + 1. Values, not positions, enter the interpolation, so
  // the result matches the sorted path exactly.
  if (state_ == Cache::kStale) {
    cache_.assign(samples_.begin(), samples_.end());
    state_ = Cache::kPermuted;
  }
  const auto first = cache_.begin();
  if (lo + 1 >= n) return *std::max_element(first, cache_.end());
  std::nth_element(first, first + static_cast<std::ptrdiff_t>(lo),
                   cache_.end());
  const double above =
      *std::min_element(first + static_cast<std::ptrdiff_t>(lo + 1),
                        cache_.end());
  return cache_[lo] * (1.0 - frac) + above * frac;
}

double SampleStore::fraction_above(double x) const {
  if (samples_.empty()) return 0.0;
  const auto& s = sorted();
  const auto it = std::upper_bound(s.begin(), s.end(), x);
  return static_cast<double>(s.end() - it) / static_cast<double>(s.size());
}

}  // namespace eas::stats
