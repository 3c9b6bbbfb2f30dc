#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/pages.hpp"

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

SampleStore::~SampleStore() {
  util::release_pages(samples_.data(), samples_.capacity() * sizeof(double));
}

void SampleStore::add(double x) {
  samples_.push_back(x);
  sum_ += x;
  if (order_ == Order::kSorted) order_ = Order::kPermuted;
}

SampleStore& SampleStore::operator+=(const SampleStore& other) {
  EAS_REQUIRE_MSG(other.order_ == Order::kInsertion,
                  "cannot merge a queried SampleStore");
  for (double x : other.samples_) sum_ += x;
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  if (order_ == Order::kSorted && !other.empty()) order_ = Order::kPermuted;
  return *this;
}

const std::vector<double>& SampleStore::sorted() const {
  if (order_ != Order::kSorted) {
    std::sort(samples_.begin(), samples_.end());
    order_ = Order::kSorted;
  }
  return samples_;
}

void SampleStore::quantiles(std::span<const double> qs,
                            std::span<double> out) const {
  EAS_REQUIRE_MSG(!samples_.empty(), "quantile of empty store");
  EAS_REQUIRE(out.size() == qs.size());
  const std::size_t n = samples_.size();
  const auto at = [this](std::size_t i) {
    return samples_.begin() + static_cast<std::ptrdiff_t>(i);
  };
  const bool ordered = order_ == Order::kSorted;
  if (!ordered) order_ = Order::kPermuted;
  // Unsorted, samples_[from, n) holds order statistics from..n-1.
  std::size_t from = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const double q = qs[i];
    EAS_REQUIRE_MSG(q >= 0.0 && q <= 1.0, "quantile out of range: " << q);
    EAS_REQUIRE_MSG(i == 0 || q >= qs[i - 1],
                    "quantiles must ascend: " << qs[i - 1] << " then " << q);
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= n) {
      out[i] = ordered ? samples_.back()
                       : *std::max_element(at(from), samples_.end());
      continue;
    }
    if (!ordered && lo >= from) {
      std::nth_element(at(from), at(lo), samples_.end());
    }
    from = lo + 1;
    const double above = ordered ? samples_[lo + 1]
                                 : *std::min_element(at(from), samples_.end());
    out[i] = samples_[lo] * (1.0 - frac) + above * frac;
  }
}

double SampleStore::fraction_above(double x) const {
  if (samples_.empty()) return 0.0;
  const auto& s = sorted();
  const auto it = std::upper_bound(s.begin(), s.end(), x);
  return static_cast<double>(s.end() - it) / static_cast<double>(s.size());
}

}  // namespace eas::stats
