// Block-level I/O traces: the workload input of the evaluation (§4.1).
//
// A trace is an ordered stream of block read records over dense DataIds.
// The paper evaluates on HP Cello and UMass Financial1; this module loads
// those formats (see parsers.hpp) and generates calibrated synthetic
// equivalents (see synthetic.hpp) when the originals are unavailable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/ids.hpp"

namespace eas::trace {

struct TraceRecord {
  double time = 0.0;  ///< disk access time, seconds from trace start
  DataId data = kInvalidData;
  std::uint32_t size_bytes = 512 * 1024;
  bool is_read = true;
};
static_assert(sizeof(TraceRecord) == 24,
              "a trace holds every record for the whole run: 8 + 4 + 4 + 1 B, "
              "padded to 24");

/// Aggregate properties used for calibration and sanity tests.
struct TraceStats {
  std::size_t num_records = 0;
  std::size_t num_distinct_data = 0;
  double duration_seconds = 0.0;
  double mean_interarrival = 0.0;
  double interarrival_cv = 0.0;  ///< burstiness: ~1 Poisson, >> 1 bursty
  double mean_rate = 0.0;        ///< records per second
  /// Fraction of accesses going to the most popular 1% of data items.
  double top1pct_access_share = 0.0;
};

/// An immutable, time-sorted request stream.
class Trace {
 public:
  Trace() = default;
  /// Validates (non-negative times, known data) and, only when the input is
  /// out of time order, sorts it by time (stable: equal times keep their
  /// input order).
  explicit Trace(std::vector<TraceRecord> records);

  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const TraceRecord& operator[](std::size_t i) const { return records_[i]; }

  double start_time() const { return empty() ? 0.0 : records_.front().time; }
  double end_time() const { return empty() ? 0.0 : records_.back().time; }
  double duration() const { return end_time() - start_time(); }

  /// Largest data id referenced + 1 (0 when empty).
  DataId data_universe_size() const;

  /// Keeps only reads (the scheduler's input per §2.1; writes are assumed
  /// handled by write off-loading).
  Trace reads_only() const;

  /// First `n` records (the paper uses 70,000-request prefixes).
  Trace prefix(std::size_t n) const;

  /// Shifts times so the trace starts at 0.
  Trace rebased() const;

  /// Remaps data ids to a dense [0, k) range preserving first-appearance
  /// order; returns the remapped trace.
  Trace densified() const;

  TraceStats compute_stats() const;

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace eas::trace
