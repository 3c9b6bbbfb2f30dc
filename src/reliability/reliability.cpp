#include "reliability/reliability.hpp"

#include <cmath>

#include "util/check.hpp"

namespace eas::reliability {

void ReliabilityConfig::validate() const {
  if (!enabled) return;
  EAS_CHECK_MSG(std::isfinite(deadline_seconds) && deadline_seconds >= 0.0,
                "reliability.deadline_seconds must be finite and >= 0, got "
                    << deadline_seconds);
  EAS_CHECK_MSG(max_attempts >= 1,
                "reliability.max_attempts must be >= 1, got 0");
  EAS_CHECK_MSG(std::isfinite(backoff_base_seconds) &&
                    backoff_base_seconds >= 0.0,
                "reliability.backoff_base_seconds must be finite and >= 0, got "
                    << backoff_base_seconds);
  EAS_CHECK_MSG(std::isfinite(backoff_cap_seconds) &&
                    backoff_cap_seconds >= backoff_base_seconds,
                "reliability.backoff_cap_seconds must be finite and >= "
                "backoff_base_seconds "
                    << backoff_base_seconds << ", got "
                    << backoff_cap_seconds);
  EAS_CHECK_MSG(jitter_fraction >= 0.0 && jitter_fraction <= 1.0,
                "reliability.jitter_fraction must be within [0, 1], got "
                    << jitter_fraction);
  EAS_CHECK_MSG(std::isfinite(hedge_delay_seconds) &&
                    hedge_delay_seconds >= 0.0,
                "reliability.hedge_delay_seconds must be finite and >= 0, got "
                    << hedge_delay_seconds);
  // 0 is a legal watermark only while no queue bound makes it mean anything.
  EAS_CHECK_MSG(backpressure_watermark >= 0.0 &&
                    backpressure_watermark <= 1.0 &&
                    (max_queue_depth == 0 || backpressure_watermark > 0.0),
                "reliability.backpressure_watermark must be within [0, 1], "
                "and > 0 with a max_queue_depth, got "
                    << backpressure_watermark);
}

}  // namespace eas::reliability
