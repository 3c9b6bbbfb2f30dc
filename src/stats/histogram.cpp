#include "stats/histogram.hpp"

#include <cmath>

#include "util/check.hpp"

namespace eas::stats {

Histogram::Histogram(double min_value, double max_value, int bins_per_decade) {
  EAS_REQUIRE_MSG(min_value > 0.0, "log histogram needs positive min");
  EAS_REQUIRE_MSG(max_value > min_value, "max must exceed min");
  EAS_REQUIRE_MSG(bins_per_decade >= 1, "need at least one bin per decade");
  log_min_ = std::log10(min_value);
  log_step_ = 1.0 / bins_per_decade;
  const double decades = std::log10(max_value) - log_min_;
  const auto bins = static_cast<std::size_t>(std::ceil(decades / log_step_));
  counts_.assign(bins == 0 ? 1 : bins, 0);
}

std::size_t Histogram::bin_for(double value) const {
  if (!(value > 0.0)) return 0;  // clamp non-positive/NaN into first bin
  const double pos = (std::log10(value) - log_min_) / log_step_;
  if (pos < 0.0) return 0;
  const auto bin = static_cast<std::size_t>(pos);
  return bin >= counts_.size() ? counts_.size() - 1 : bin;
}

void Histogram::add(double value, std::uint64_t count) {
  counts_[bin_for(value)] += count;
  total_ += count;
}

Histogram& Histogram::operator+=(const Histogram& other) {
  EAS_REQUIRE_MSG(log_min_ == other.log_min_ && log_step_ == other.log_step_ &&
                      counts_.size() == other.counts_.size(),
                  "histogram merge requires identical binning");
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  total_ += other.total_;
  return *this;
}

double Histogram::bin_lower(std::size_t bin) const {
  EAS_REQUIRE(bin < counts_.size());
  return std::pow(10.0, log_min_ + log_step_ * static_cast<double>(bin));
}

double Histogram::bin_upper(std::size_t bin) const {
  EAS_REQUIRE(bin < counts_.size());
  return std::pow(10.0, log_min_ + log_step_ * static_cast<double>(bin + 1));
}

double Histogram::bin_mid(std::size_t bin) const {
  return std::sqrt(bin_lower(bin) * bin_upper(bin));
}

double Histogram::quantile_estimate(double q) const {
  EAS_REQUIRE_MSG(total_ > 0, "quantile of empty histogram");
  EAS_REQUIRE(q >= 0.0 && q <= 1.0);
  const double target = q * static_cast<double>(total_);
  double acc = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    acc += static_cast<double>(counts_[b]);
    if (acc >= target) return bin_mid(b);
  }
  return bin_mid(counts_.size() - 1);
}

}  // namespace eas::stats
