// Named metrics: counters, gauges, summaries and histograms for one run.
//
// A MetricRegistry belongs to a single simulation (thread-confined, like the
// recorder); the sweep runner gives each cell its own registry and merges
// the shards afterwards in cell-index order, so the combined numbers are
// bit-identical regardless of EAS_THREADS — "lock-free mergeable" by
// construction rather than by atomics.
//
// Entries live in a deque so registration hands back stable pointers; hot
// paths cache the pointer once and update through it without any name
// lookup. Iteration and JSON export follow registration order, which keeps
// the serialized form schema-stable.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace eas::obs {

enum class MetricKind : std::uint8_t {
  kCounter,    ///< monotone u64 (requests served, spin-ups, failovers)
  kGauge,      ///< last-write-wins double (total energy, energy/request)
  kSummary,    ///< Welford mean/min/max/stddev (queue depth, batch size)
  kHistogram,  ///< log-binned distribution (response times)
};

const char* to_string(MetricKind k);

struct Metric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  stats::SummaryStats summary;
  stats::Histogram histogram;  ///< placeholder binning for non-histograms

  Metric(std::string n, MetricKind k, double hist_min, double hist_max,
         int bins_per_decade)
      : name(std::move(n)),
        kind(k),
        histogram(hist_min, hist_max, bins_per_decade) {}
};

class MetricRegistry {
 public:
  // Registration: find-or-create by name. Re-registering an existing name
  // returns the same entry (kind must match). The returned pointers stay
  // valid for the registry's lifetime.
  std::uint64_t* counter(const std::string& name);
  double* gauge(const std::string& name);
  stats::SummaryStats* summary(const std::string& name);
  stats::Histogram* histogram(const std::string& name, double min_value,
                              double max_value, int bins_per_decade = 10);

  std::size_t size() const { return entries_.size(); }
  const Metric& at(std::size_t i) const { return entries_[i]; }

  /// Entry by name, or nullptr. Linear scan — fine for export/test paths;
  /// hot paths hold the pointer from registration instead.
  const Metric* find(const std::string& name) const;

  /// Folds `other` into this registry: counters add, gauges take the other
  /// side's value (a merged gauge is "last shard wins" — shards are merged
  /// in deterministic cell order), summaries and histograms merge
  /// element-wise. Entries missing here are appended in the other's order.
  void merge(const MetricRegistry& other);

  /// Stable JSON object: {"name":{"kind":...,...},...} in registration
  /// order. Used for determinism fingerprints and the sweep metrics export.
  std::string to_json() const;

 private:
  Metric& find_or_create(const std::string& name, MetricKind kind,
                         double hist_min, double hist_max,
                         int bins_per_decade);

  std::deque<Metric> entries_;
};

}  // namespace eas::obs
