#include "core/wsc_scheduler.hpp"

#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace eas::core {

std::string WscBatchScheduler::name() const {
  std::ostringstream os;
  os << "wsc(batch=" << interval_ << "s"
     << (mode_ == WeightMode::kPureEnergy ? ",energy" : "") << ")";
  return os.str();
}

void WscBatchScheduler::build_cover(const std::vector<disk::Request>& batch,
                                    const SystemView& view) {
  graph::SetCoverInstance& instance = cover_;
  instance.weights.clear();
  instance.element_start.resize(1);
  instance.element_sets.clear();
  candidates_.clear();
  elem_req_.clear();

  // Under a degraded view only readable replicas become set members, and a
  // request whose replicas are all gone is excluded from the universe
  // entirely (it cannot be covered; assign() reports it as unavailable).
  const fault::FailureView* fv =
      view.degraded() ? view.failure_view() : nullptr;

  // The clock, cost model and placement are fixed for the batch: read or
  // derive them once, not once per set or request. Pure-energy weights
  // never read the cost parameters, so they are not checked in that mode.
  const placement::PlacementMap& placement = view.placement();
  const double now = view.now();
  const bool pure_energy = mode_ == WeightMode::kPureEnergy;
  const CostModel model(view.power_params(),
                        pure_energy ? CostParams{} : cost_);

  // One set per disk that stores at least one batched request's data, in
  // first-encounter order.
  constexpr std::uint32_t kNoSet = std::numeric_limits<std::uint32_t>::max();
  if (set_of_disk_.size() < placement.num_disks()) {
    set_of_disk_.resize(placement.num_disks(), kNoSet);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (DiskId k : placement.locations(batch[i].data)) {
      if (fv != nullptr && !fv->replica_readable(batch[i].data, k)) continue;
      std::uint32_t idx = set_of_disk_[k];
      if (idx == kNoSet) {
        idx = static_cast<std::uint32_t>(candidates_.size());
        set_of_disk_[k] = idx;
        candidates_.push_back(k);
        const disk::DiskStatus& d = view.disk(k);
        instance.weights.push_back(pure_energy ? model.energy(d, now)
                                               : model.cost(d, now));
      }
      instance.element_sets.push_back(idx);
    }
    // A request with at least one readable replica claims the next element.
    const auto filled =
        static_cast<std::uint32_t>(instance.element_sets.size());
    if (filled > instance.element_start.back()) {
      instance.element_start.push_back(filled);
      elem_req_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // Restore the sentinel for the next batch; only touched entries cost.
  for (DiskId k : candidates_) set_of_disk_[k] = kNoSet;
  // Set rows, each in ascending element order.
  instance.set_start.resize(1);
  graph::transpose_rows(instance.element_start, instance.element_sets,
                        candidates_.size(), instance.set_start,
                        instance.set_elements);
}

std::vector<DiskId> WscBatchScheduler::assign(
    const std::vector<disk::Request>& batch, const SystemView& view) {
  if (batch.empty()) return {};

  build_cover(batch, view);
  const graph::SetCoverSolution& cover =
      graph::greedy_weighted_set_cover(cover_, cover_ws_);
  // Theorem 2 only holds if the chosen disks actually cover the batch.
  if constexpr (audit_enabled()) graph::check_cover(cover, cover_);

  // Each request goes to the first chosen set (in greedy order) holding its
  // data — the set that "paid" for covering it, recorded by the greedy as
  // it covered the element. Batch entries outside the universe (no live
  // replica) stay kInvalidDisk: reported, not asserted.
  std::vector<DiskId> assignment(batch.size(), kInvalidDisk);  // det-ok: the one per-batch allocation; BatchScheduler::assign returns by value
  for (std::size_t e = 0; e < elem_req_.size(); ++e) {
    const std::size_t i = elem_req_[e];
    const std::uint32_t s = cover_ws_.cover_of[e];
    EAS_ENSURE_MSG(s < candidates_.size(),
                   "set cover left request " << i << " unassigned");
    assignment[i] = candidates_[s];
    // The assigned disk must hold a replica of the requested data, or the
    // "serviced from a replica" premise of the whole model is broken.
    EAS_AUDIT_MSG(view.placement().stores(batch[i].data, assignment[i]),
                  "request " << i << " assigned to disk " << assignment[i]
                             << " which does not store data "
                             << batch[i].data);
  }
  return assignment;
}

}  // namespace eas::core
