#include "core/write_offload.hpp"

#include <limits>

namespace eas::core {

DiskId WriteOffloadManager::route_write(const disk::Request& r,
                                        const SystemView& view) {
  ++stats_.writes_total;
  const auto& placement = view.placement();
  const DiskId home = placement.original(r.data);

  // A spinning home disk absorbs the write directly; this also retires any
  // stale diversion (the fresh version now lives at home again).
  if (is_spinning(view.disk(home))) {
    ++stats_.writes_home;
    if (diverted_.erase(r.data) > 0) ++stats_.reclaims;
    return home;
  }

  if (!options_.enabled) {
    ++stats_.writes_woke_home;
    diverted_.erase(r.data);
    return home;
  }

  // The cheapest spinning disk seen so far is the diversion target.
  const CostModel model(view.power_params(), options_.cost);
  const double now = view.now();
  DiskId best = kInvalidDisk;
  double best_cost = std::numeric_limits<double>::infinity();
  const auto consider = [&](DiskId k) {
    const disk::DiskStatus& d = view.disk(k);
    if (!is_spinning(d)) return;
    const double c = model.cost(d, now);
    if (c < best_cost) {
      best_cost = c;
      best = k;
    }
  };
  // Preferred diversion: a spinning replica location — the block already
  // belongs there, so a later reclaim is free.
  for (DiskId k : placement.locations(r.data)) consider(k);
  if (best != kInvalidDisk) {
    // Version lives on a replica that is not the original: reads must not
    // consult stale copies elsewhere, so record the diversion.
    if (best != home) {
      diverted_[r.data] = best;
    } else if (diverted_.erase(r.data) > 0) {
      ++stats_.reclaims;
    }
    ++stats_.writes_diverted;
    return best;
  }

  // Any spinning disk in the data centre will do (write off-loading's core
  // move): pick the cheapest one.
  for (DiskId k = 0; k < view.num_disks(); ++k) consider(k);
  if (best != kInvalidDisk) {
    diverted_[r.data] = best;
    ++stats_.writes_diverted;
    return best;
  }

  // Cold system: every disk is asleep, someone must wake up.
  ++stats_.writes_woke_home;
  diverted_.erase(r.data);
  return home;
}

std::optional<DiskId> WriteOffloadManager::read_override(
    DataId data, const SystemView& view) {
  const auto it = diverted_.find(data);
  if (it == diverted_.end()) return std::nullopt;

  // Lazy reclamation: if the home disk is spinning anyway, ship the block
  // back now (the write-back rides on already-paid energy) and serve reads
  // from placement again.
  const DiskId home = view.placement().original(data);
  if (is_spinning(view.disk(home))) {
    diverted_.erase(it);
    ++stats_.reclaims;
    return std::nullopt;
  }
  ++stats_.reads_redirected;
  return it->second;
}

}  // namespace eas::core
