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
  EAS_CHECK_MSG(block_bytes > 0, "cache block_bytes must be positive");
  EAS_CHECK_MSG(std::isfinite(dram_latency_seconds) &&
                    dram_latency_seconds >= 0.0,
                "dram_latency_seconds=" << dram_latency_seconds);
  EAS_CHECK_MSG(std::isfinite(memory_watts_per_gib) &&
                    memory_watts_per_gib >= 0.0,
                "memory_watts_per_gib=" << memory_watts_per_gib);
  EAS_CHECK_MSG(std::isfinite(destage_deadline_seconds) &&
                    destage_deadline_seconds > 0.0,
                "destage_deadline_seconds=" << destage_deadline_seconds);
  EAS_CHECK_MSG(max_destage_batch > 0, "max_destage_batch must be positive");
  EAS_CHECK_MSG(high_watermark > 0.0 && high_watermark <= 1.0,
                "high_watermark=" << high_watermark);
  EAS_CHECK_MSG(low_watermark >= 0.0 && low_watermark < high_watermark,
                "watermarks inverted: low=" << low_watermark
                                            << " high=" << high_watermark);
}

double CacheConfig::memory_energy_joules(double horizon) const {
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  return static_cast<double>(footprint_bytes()) / kGiB *
         memory_watts_per_gib * horizon;
}

}  // namespace eas::cache
