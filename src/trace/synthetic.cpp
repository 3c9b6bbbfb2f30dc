#include "trace/synthetic.hpp"

#include <limits>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace eas::trace {

void SyntheticTraceConfig::validate() const {
  EAS_REQUIRE(num_requests > 0);
  EAS_REQUIRE(num_data > 0);
  EAS_REQUIRE(popularity_z >= 0.0);
  EAS_REQUIRE(mean_rate > 0.0);
  EAS_REQUIRE(burst_rate_multiplier >= 1.0);
  EAS_REQUIRE(burst_time_fraction >= 0.0 && burst_time_fraction < 1.0);
  EAS_REQUIRE(mean_burst_seconds > 0.0);
  EAS_REQUIRE(block_bytes > 0);
  EAS_REQUIRE_MSG(block_bytes <= std::numeric_limits<std::uint32_t>::max(),
                  "block_bytes " << block_bytes << " does not fit 32 bits");
  EAS_REQUIRE(write_fraction >= 0.0 && write_fraction <= 1.0);
}

Trace make_synthetic_trace(const SyntheticTraceConfig& cfg) {
  cfg.validate();
  util::Rng rng(cfg.seed);
  util::Rng popularity_rng = rng.split();  // independent streams: changing
  util::Rng arrival_rng = rng.split();     // one knob leaves the other fixed
  util::Rng op_rng = rng.split();

  // Rank -> data id mapping randomised so popular items are spread across
  // the id space (ids carry no popularity meaning downstream).
  std::vector<DataId> rank_to_data(cfg.num_data);
  for (DataId b = 0; b < cfg.num_data; ++b) rank_to_data[b] = b;
  popularity_rng.shuffle(rank_to_data);
  util::ZipfSampler zipf(cfg.num_data, cfg.popularity_z);

  // MMPP rates: mean_rate = f·λ_burst + (1-f)·λ_calm, λ_burst = m·λ_calm.
  const double f = cfg.burst_time_fraction;
  const double m = cfg.burst_rate_multiplier;
  const double calm_rate = cfg.mean_rate / (f * m + (1.0 - f));
  const double burst_rate = m * calm_rate;
  // Dwell times: burst mean given; calm mean chosen so the long-run burst
  // fraction matches f ( f = E[burst] / (E[burst] + E[calm]) ).
  const double mean_calm_seconds =
      f > 0.0 ? cfg.mean_burst_seconds * (1.0 - f) / f
              : 1.0;  // unused when f == 0

  std::vector<TraceRecord> records;
  records.reserve(cfg.num_requests);

  double now = 0.0;
  bool in_burst = false;
  double state_ends =
      f > 0.0 ? arrival_rng.exponential(1.0 / mean_calm_seconds)
              : std::numeric_limits<double>::infinity();

  while (records.size() < cfg.num_requests) {
    const double rate = in_burst ? burst_rate : calm_rate;
    const double gap = arrival_rng.exponential(rate);
    if (now + gap >= state_ends) {
      // State switch happens before the candidate arrival; restart the
      // (memoryless) arrival draw from the switch instant.
      now = state_ends;
      in_burst = !in_burst;
      const double mean_dwell =
          in_burst ? cfg.mean_burst_seconds : mean_calm_seconds;
      state_ends = now + arrival_rng.exponential(1.0 / mean_dwell);
      continue;
    }
    now += gap;
    TraceRecord r;
    r.time = now;
    r.data = rank_to_data[zipf.sample(popularity_rng)];
    r.size_bytes = static_cast<std::uint32_t>(cfg.block_bytes);
    r.is_read = cfg.write_fraction <= 0.0 || !op_rng.bernoulli(cfg.write_fraction);
    records.push_back(r);
  }
  return Trace(std::move(records));
}

SyntheticTraceConfig cello_like_config(std::uint64_t seed) {
  SyntheticTraceConfig cfg;
  cfg.seed = seed;
  cfg.num_requests = 70000;
  cfg.num_data = 32768;
  cfg.popularity_z = 0.9;  // time-sharing workloads show strong skew [2]
  // Calibrated against the paper's Cello anchors (see EXPERIMENTS.md):
  // rf=1 normalized energy ~0.9, Static mean response ~1.1 s, <15 s worst
  // case spin-up penalties, interarrival CV ~3.
  cfg.mean_rate = 35.0;
  cfg.burst_rate_multiplier = 60.0;  // heavy bursts: compile/sim storms
  cfg.burst_time_fraction = 0.04;
  cfg.mean_burst_seconds = 2.0;
  return cfg;
}

Trace make_cello_like(std::uint64_t seed) {
  return make_synthetic_trace(cello_like_config(seed));
}

SyntheticTraceConfig financial_like_config(std::uint64_t seed) {
  SyntheticTraceConfig cfg;
  cfg.seed = seed;
  cfg.num_requests = 70000;
  cfg.num_data = 32768;
  cfg.popularity_z = 0.9;
  // Calibrated to Financial1's signature (§A.4): same scale as Cello but
  // much smoother arrivals (CV ~1.1), giving the paper's ~3x lower mean
  // response times at identical energy-ranking behaviour.
  cfg.mean_rate = 45.0;
  cfg.burst_rate_multiplier = 3.0;  // mild diurnal-style modulation
  cfg.burst_time_fraction = 0.15;
  cfg.mean_burst_seconds = 5.0;
  return cfg;
}

Trace make_financial_like(std::uint64_t seed) {
  return make_synthetic_trace(financial_like_config(seed));
}

}  // namespace eas::trace
