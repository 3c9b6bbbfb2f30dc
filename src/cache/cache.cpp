#include "cache/cache.hpp"

#include <cmath>

#include "util/check.hpp"

namespace eas::cache {

const char* to_string(CachePolicy p) {
  switch (p) {
    case CachePolicy::kLru:
      return "lru";
    case CachePolicy::kArc:
      return "arc";
  }
  return "?";
}

void CacheConfig::validate() const {
  if (!enabled) return;
  EAS_CHECK_MSG(block_bytes > 0, "cache.block_bytes must be > 0, got 0");
  EAS_CHECK_MSG(std::isfinite(dram_latency_seconds) &&
                    dram_latency_seconds > 0.0,
                "cache.dram_latency_seconds must be finite and > 0, got "
                    << dram_latency_seconds);
  EAS_CHECK_MSG(std::isfinite(memory_watts_per_gib) &&
                    memory_watts_per_gib >= 0.0,
                "cache.memory_watts_per_gib must be finite and >= 0, got "
                    << memory_watts_per_gib);
  EAS_CHECK_MSG(std::isfinite(destage_deadline_seconds) &&
                    destage_deadline_seconds > 0.0,
                "cache.destage_deadline_seconds must be finite and > 0, got "
                    << destage_deadline_seconds);
  EAS_CHECK_MSG(max_destage_batch > 0,
                "cache.max_destage_batch must be > 0, got 0");
  EAS_CHECK_MSG(high_watermark > 0.0 && high_watermark <= 1.0,
                "cache.high_watermark must be within (0, 1], got "
                    << high_watermark);
  EAS_CHECK_MSG(low_watermark >= 0.0 && low_watermark < high_watermark,
                "cache.low_watermark must be within [0, high_watermark), got "
                    << low_watermark << " with high_watermark "
                    << high_watermark);
}

double CacheConfig::memory_energy_joules(double horizon) const {
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  return static_cast<double>(footprint_bytes()) / kGiB *
         memory_watts_per_gib * horizon;
}

}  // namespace eas::cache
