#include "power/covering_subset.hpp"

#include <sstream>

#include "graph/set_cover.hpp"

namespace eas::power {

CoveringSubsetPolicy::CoveringSubsetPolicy(
    const placement::PlacementMap& placement, double threshold_seconds)
    : threshold_policy_(threshold_seconds) {
  // Elements = data items, sets = disks, unit weights: the classic
  // covering-subset construction.
  std::vector<graph::SetSpec> sets;
  std::vector<DiskId> disk_of_set;
  std::vector<std::vector<std::uint32_t>> per_disk(placement.num_disks());
  for (DataId b = 0; b < placement.num_data(); ++b) {
    for (DiskId k : placement.locations(b)) per_disk[k].push_back(b);
  }
  for (DiskId k = 0; k < placement.num_disks(); ++k) {
    if (per_disk[k].empty()) continue;
    sets.push_back({1.0, std::move(per_disk[k])});
    disk_of_set.push_back(k);
  }
  const auto cover = graph::greedy_weighted_set_cover(
      graph::make_set_cover(placement.num_data(), sets));
  for (std::size_t s : cover.chosen_sets) covering_.insert(disk_of_set[s]);
}

std::string CoveringSubsetPolicy::name() const {
  std::ostringstream os;
  os << "covering-subset(" << covering_.size() << " pinned)";
  return os.str();
}

void CoveringSubsetPolicy::on_run_start(
    sim::Simulator& sim, const std::vector<disk::Disk*>& disks) {
  // The covering disks must be available from the start: wake them now.
  for (disk::Disk* d : disks) {
    if (covering_.contains(d->id()) &&
        d->state() == disk::DiskState::Standby) {
      d->spin_up();
    }
  }
  threshold_policy_.on_run_start(sim, disks);
}

void CoveringSubsetPolicy::on_disk_idle(sim::Simulator& sim, disk::Disk& d) {
  if (covering_.contains(d.id())) return;  // pinned: never spins down
  threshold_policy_.on_disk_idle(sim, d);
}

void CoveringSubsetPolicy::on_disk_activity(sim::Simulator& sim,
                                            disk::Disk& d) {
  if (covering_.contains(d.id())) return;
  threshold_policy_.on_disk_activity(sim, d);
}

}  // namespace eas::power
