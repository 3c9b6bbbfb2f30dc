#include "core/predictive_scheduler.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "core/cost_scheduler.hpp"
#include "util/check.hpp"

namespace eas::core {

PredictiveCostScheduler::PredictiveCostScheduler(PredictiveParams params)
    : params_(params) {
  EAS_REQUIRE_MSG(params_.gamma >= 0.0, "gamma must be non-negative");
  EAS_REQUIRE_MSG(params_.rate_halflife_seconds > 0.0,
                "rate half-life must be positive");
  decay_lambda_ = std::log(2.0) / params_.rate_halflife_seconds;
}

std::string PredictiveCostScheduler::name() const {
  std::ostringstream os;
  os << "predictive(a=" << params_.cost.alpha << ",b=" << params_.cost.beta
     << ",g=" << params_.gamma << ")";
  return os.str();
}

double PredictiveCostScheduler::estimated_rate(DiskId k, double now) const {
  if (k >= rates_.size()) return 0.0;
  const RateState& s = rates_[k];
  EAS_DCHECK(now >= s.last_update);
  return s.value * std::exp(-decay_lambda_ * (now - s.last_update));
}

void PredictiveCostScheduler::note_dispatch(DiskId k, double now) {
  if (k >= rates_.size()) rates_.resize(k + 1);
  RateState& s = rates_[k];
  // Decay to `now`, then add one impulse of weight lambda: a steady stream
  // of r requests/second then converges to an estimate of r
  // (E[sum lambda*e^(-lambda*dt)] = lambda * r / lambda = r).
  s.value = s.value * std::exp(-decay_lambda_ * (now - s.last_update)) +
            decay_lambda_;
  s.last_update = now;
}

DiskId PredictiveCostScheduler::pick(const disk::Request& r,
                                     const SystemView& view) {
  const std::span<const DiskId> locs = view.placement().locations(r.data);
  EAS_DCHECK(!locs.empty());
  const fault::FailureView* fv = view.degraded() ? view.failure_view() : nullptr;
  const double now = view.now();
  const CostModel model(view.power_params(), params_.cost);
  double best_cost = std::numeric_limits<double>::infinity();
  DiskId best = kInvalidDisk;
  for (DiskId k : locs) {
    if (fv != nullptr && !fv->replica_readable(r.data, k)) continue;
    const double base = model.cost(view.disk(k), now);
    // Backpressure penalty first (identity without a reliability tier),
    // then the predicted-load discount (gamma) and the same dirty-set
    // pressure discount the plain cost scheduler applies (see
    // cost_scheduler.hpp); all are exactly 1 when that state is absent.
    const double pressured =
        view.backpressured(k) ? base * kBackpressurePenalty : base;
    const double discount =
        (1.0 + params_.gamma * estimated_rate(k, now)) *
        (1.0 + kDestagePressureWeight *
                   static_cast<double>(view.pending_destage(k)));
    const double c = pressured / discount;
    if (c < best_cost) {
      best_cost = c;
      best = k;
    }
  }
  if (best == kInvalidDisk) return kInvalidDisk;  // all replicas unreadable
  note_dispatch(best, now);
  return best;
}

}  // namespace eas::core
