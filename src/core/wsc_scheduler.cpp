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

const graph::SetCoverInstance& WscBatchScheduler::build_instance_into(
    const std::vector<disk::Request>& batch, const SystemView& view,
    std::vector<DiskId>& candidate_disks) const {
  graph::SetCoverInstance& instance = inst_ws_;
  // Retire the previous instance's element vectors into the spare pool so
  // their capacity survives sets.clear(). Retiring in reverse hands set i
  // its own old vector back, so a recurring batch shape stops regrowing.
  for (auto it = instance.sets.rbegin(); it != instance.sets.rend(); ++it) {
    it->elements.clear();
    spare_elements_.push_back(std::move(it->elements));
  }
  instance.sets.clear();

  // Under a degraded view only readable replicas become set members, and a
  // request whose replicas are all gone is excluded from the universe
  // entirely (it cannot be covered; assign() reports it as unavailable).
  // elem_req_ maps instance element -> batch index; on the healthy path it
  // is the identity.
  const fault::FailureView* fv =
      view.degraded() ? view.failure_view() : nullptr;
  elem_req_.clear();

  // The clock, power parameters and placement are fixed for the batch:
  // read them once, not once per set or request.
  const placement::PlacementMap& placement = view.placement();
  const double now = view.now();
  const disk::DiskPowerParams& power = view.power_params();

  // One set per disk that stores at least one batched request's data. The
  // dense map assigns set indices in first-encounter order, exactly as the
  // hashed try_emplace it replaces did.
  constexpr std::uint32_t kNoSet = std::numeric_limits<std::uint32_t>::max();
  if (set_of_disk_.size() < placement.num_disks()) {
    set_of_disk_.resize(placement.num_disks(), kNoSet);
  }
  candidate_disks.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t e = elem_req_.size();  // tentative element id
    bool coverable = false;
    for (DiskId k : placement.locations(batch[i].data)) {
      if (fv != nullptr && !fv->replica_readable(batch[i].data, k)) continue;
      std::uint32_t idx = set_of_disk_[k];
      if (idx == kNoSet) {
        idx = static_cast<std::uint32_t>(instance.sets.size());
        set_of_disk_[k] = idx;
        auto& set = instance.sets.emplace_back();
        if (!spare_elements_.empty()) {
          set.elements = std::move(spare_elements_.back());
          spare_elements_.pop_back();
        }
        candidate_disks.push_back(k);
        const disk::DiskStatus& d = view.disk(k);
        set.weight = mode_ == WeightMode::kPureEnergy
                         ? marginal_energy_cost(d, now, power)
                         : composite_cost(d, now, power, cost_);
      }
      instance.sets[idx].elements.push_back(e);
      coverable = true;
    }
    if (coverable) elem_req_.push_back(i);  // claims element id e
  }
  instance.num_elements = elem_req_.size();
  // Restore the sentinel for the next batch; only touched entries cost.
  for (DiskId k : candidate_disks) set_of_disk_[k] = kNoSet;
  return instance;
}

std::vector<DiskId> WscBatchScheduler::assign(
    const std::vector<disk::Request>& batch, const SystemView& view) {
  if (batch.empty()) return {};

  auto& candidate_disks = candidates_ws_;
  const graph::SetCoverInstance& instance =
      build_instance_into(batch, view, candidate_disks);
  const graph::SetCoverSolution& cover =
      graph::greedy_weighted_set_cover(instance, cover_ws_);
  // Theorem 2 only holds if the chosen disks actually cover the batch.
  if constexpr (audit_enabled()) graph::check_cover(cover, instance);

  // Each request goes to the first chosen set (in greedy order) holding its
  // data — the set that "paid" for covering it. Batch entries outside the
  // universe (no live replica) stay kInvalidDisk: reported, not asserted.
  std::vector<DiskId> assignment(batch.size(), kInvalidDisk);  // det-ok: the one per-batch allocation; BatchScheduler::assign returns by value
  for (std::size_t s : cover.chosen_sets) {
    for (std::size_t e : instance.sets[s].elements) {
      const std::size_t i = elem_req_[e];
      if (assignment[i] == kInvalidDisk) assignment[i] = candidate_disks[s];
    }
  }
  for (std::size_t e = 0; e < instance.num_elements; ++e) {
    const std::size_t i = elem_req_[e];
    EAS_ENSURE_MSG(assignment[i] != kInvalidDisk,
                   "set cover left request " << i << " unassigned");
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
