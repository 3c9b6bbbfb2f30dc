#include "core/cost_scheduler.hpp"

#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace eas::core {

std::string CostFunctionScheduler::name() const {
  std::ostringstream os;
  os << "heuristic(a=" << params_.alpha << ",b=" << params_.beta << ")";
  return os.str();
}

DiskId CostFunctionScheduler::pick(const disk::Request& r,
                                   const SystemView& view) {
  const std::span<const DiskId> locs = view.placement().locations(r.data);
  EAS_DCHECK(!locs.empty());
  const fault::FailureView* fv = view.degraded() ? view.failure_view() : nullptr;
  const double now = view.now();
  const CostModel model(view.power_params(), params_);
  double best_cost = std::numeric_limits<double>::infinity();
  bool best_sleeping = true;
  DiskId best = kInvalidDisk;
  for (DiskId k : locs) {
    if (fv != nullptr && !fv->replica_readable(r.data, k)) continue;
    const disk::DiskStatus& d = view.disk(k);
    const double base = model.cost(d, now);
    // Dirty-set pressure discount: a disk holding pending destage work
    // amortizes its wake cost across the foreground read *and* the flush,
    // so its effective cost shrinks. Skipped when nothing is pending (always
    // without a cache tier): dividing by exactly 1 would change no bit.
    // Backpressure penalty: an admission-control-saturated disk is priced
    // up so load drains toward replicas with queue headroom. Identity when
    // no reliability tier exists (backpressured is identically false).
    const double pressured =
        view.backpressured(k) ? base * kBackpressurePenalty : base;
    const std::uint64_t pending = view.pending_destage(k);
    const double c =
        pending == 0 ? pressured
                     : pressured / (1.0 + kDestagePressureWeight *
                                              static_cast<double>(pending));
    const bool sleeping = d.state == disk::DiskState::Standby ||
                          d.state == disk::DiskState::SpinningDown;
    // Lexicographic (cost, sleeping?, replica order): equal-cost ties go to
    // a spinning disk — same joules, but no multi-second wake delay — and
    // then to the earliest replica for reproducibility.
    if (c < best_cost || (c == best_cost && best_sleeping && !sleeping)) {
      best_cost = c;
      best_sleeping = sleeping;
      best = k;
    }
  }
  return best;
}

}  // namespace eas::core
