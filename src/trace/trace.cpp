#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "stats/summary.hpp"
#include "util/check.hpp"

namespace eas::trace {

Trace::Trace(std::vector<TraceRecord> records) : records_(std::move(records)) {
  bool sorted = true;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    EAS_REQUIRE_MSG(r.time >= 0.0, "negative record time " << r.time);
    EAS_REQUIRE_MSG(r.data != kInvalidData, "record without data id");
    if (i > 0 && r.time < records_[i - 1].time) sorted = false;
  }
  if (sorted) return;
  std::stable_sort(records_.begin(), records_.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.time < b.time;
                   });
}

DataId Trace::data_universe_size() const {
  DataId max_id = 0;
  bool any = false;
  for (const auto& r : records_) {
    max_id = std::max(max_id, r.data);
    any = true;
  }
  return any ? max_id + 1 : 0;
}

Trace Trace::reads_only() const {
  std::vector<TraceRecord> out;
  out.reserve(records_.size());
  for (const auto& r : records_) {
    if (r.is_read) out.push_back(r);
  }
  return Trace(std::move(out));
}

Trace Trace::prefix(std::size_t n) const {
  std::vector<TraceRecord> out(records_.begin(),
                               records_.begin() +
                                   static_cast<std::ptrdiff_t>(
                                       std::min(n, records_.size())));
  return Trace(std::move(out));
}

Trace Trace::rebased() const {
  if (empty()) return {};
  const double t0 = records_.front().time;
  std::vector<TraceRecord> out = records_;
  for (auto& r : out) r.time -= t0;
  return Trace(std::move(out));
}

Trace Trace::densified() const {
  std::unordered_map<DataId, DataId> remap;
  remap.reserve(records_.size());
  std::vector<TraceRecord> out = records_;
  for (auto& r : out) {
    auto [it, inserted] =
        remap.try_emplace(r.data, static_cast<DataId>(remap.size()));
    r.data = it->second;
  }
  return Trace(std::move(out));
}

TraceStats Trace::compute_stats() const {
  TraceStats s;
  s.num_records = records_.size();
  if (records_.empty()) return s;

  std::unordered_map<DataId, std::size_t> access_counts;
  stats::SummaryStats gaps;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    ++access_counts[records_[i].data];
    if (i > 0) gaps.add(records_[i].time - records_[i - 1].time);
  }
  s.num_distinct_data = access_counts.size();
  s.duration_seconds = duration();
  s.mean_interarrival = gaps.mean();
  s.interarrival_cv = gaps.cv();
  s.mean_rate =
      s.duration_seconds > 0.0
          ? static_cast<double>(records_.size()) / s.duration_seconds
          : 0.0;

  std::vector<std::size_t> counts;
  counts.reserve(access_counts.size());
  for (const auto& [data, n] : access_counts) counts.push_back(n);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  const std::size_t top = std::max<std::size_t>(1, counts.size() / 100);
  std::size_t top_total = 0;
  for (std::size_t i = 0; i < top; ++i) top_total += counts[i];
  s.top1pct_access_share =
      static_cast<double>(top_total) / static_cast<double>(records_.size());
  return s;
}

}  // namespace eas::trace
