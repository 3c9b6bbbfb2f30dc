#include "fault/failure_view.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace eas::fault {

void FaultProfile::validate(DiskId num_disks) const {
  EAS_REQUIRE_MSG(mttf_seconds >= 0.0, "negative mttf " << mttf_seconds);
  EAS_REQUIRE_MSG(mttr_seconds >= 0.0, "negative mttr " << mttr_seconds);
  EAS_REQUIRE_MSG(weibull_shape > 0.0,
                  "weibull shape must be positive, got " << weibull_shape);
  EAS_REQUIRE_MSG(rebuild_bytes_per_item > 0,
                  "rebuild_bytes_per_item must be positive");
  for (const ScriptedFault& f : script) {
    EAS_REQUIRE_MSG(f.time >= 0.0, "scripted fault at negative time "
                                       << f.time);
    EAS_REQUIRE_MSG(f.duration >= 0.0,
                    "scripted fault with negative duration " << f.duration);
    EAS_REQUIRE_MSG(f.disk < num_disks, "scripted fault on disk "
                                            << f.disk << " outside fleet of "
                                            << num_disks);
    if (f.kind == ScriptedFault::Kind::kLatentSector) {
      EAS_REQUIRE_MSG(f.data_lo <= f.data_hi,
                      "latent-sector range [" << f.data_lo << ", " << f.data_hi
                                              << "] is inverted");
    }
    if (f.kind == ScriptedFault::Kind::kTransient) {
      EAS_REQUIRE_MSG(f.duration > 0.0,
                      "transient timeout needs a positive duration");
    }
  }
}

FailureView::FailureView(DiskId num_disks)
    : health_(num_disks, DiskHealth::kUp),
      pinned_(num_disks, 0),
      lost_(num_disks) {
  EAS_REQUIRE_MSG(num_disks > 0, "failure view over an empty fleet");
}

bool FailureView::replica_readable(DataId b, DiskId k) const {
  if (health_.at(k) != DiskHealth::kUp) return false;
  for (const auto& [lo, hi] : lost_[k]) {
    if (b >= lo && b <= hi) return false;
  }
  return true;
}

bool FailureView::live_locations(const placement::PlacementMap& pm, DataId b,
                                 std::vector<DiskId>& out) const {
  out.clear();
  for (DiskId k : pm.locations(b)) {
    if (replica_readable(b, k)) out.push_back(k);
  }
  return !out.empty();
}

DiskId FailureView::first_live(const placement::PlacementMap& pm,
                               DataId b) const {
  for (DiskId k : pm.locations(b)) {
    if (replica_readable(b, k)) return k;
  }
  return kInvalidDisk;
}

void FailureView::note_mutation(double now, bool was_degraded) {
  const bool is_degraded = degraded();
  if (!was_degraded && is_degraded) {
    degraded_since_ = now;
    ++degraded_episodes_;
  } else if (was_degraded && !is_degraded) {
    EAS_ASSERT_MSG(now >= degraded_since_, "degraded episode ends in the past");
    degraded_seconds_ += now - degraded_since_;
  }
}

void FailureView::set_health(double now, DiskId k, DiskHealth h) {
  const bool was = degraded();
  const DiskHealth prev = health_.at(k);
  if (prev == h) return;
  if (prev == DiskHealth::kUp) ++not_up_;
  if (h == DiskHealth::kUp) {
    EAS_ASSERT(not_up_ > 0);
    --not_up_;
  }
  health_[k] = h;
  note_mutation(now, was);
}

void FailureView::set_rebuild_pin(double now, DiskId k, bool pinned) {
  (void)now;
  EAS_REQUIRE_MSG(k < num_disks(),
                  "rebuild pin for unknown disk " << k << " (fleet size "
                                                  << num_disks() << ")");
  pinned_[k] = pinned ? 1 : 0;
}

void FailureView::add_lost_range(double now, DiskId k, DataId lo, DataId hi) {
  EAS_REQUIRE_MSG(lo <= hi, "lost range [" << lo << ", " << hi
                                           << "] is inverted");
  const bool was = degraded();
  auto& ranges = lost_.at(k);
  // Merge with any overlapping/adjacent existing range.
  std::vector<std::pair<DataId, DataId>> merged;
  merged.reserve(ranges.size() + 1);
  for (const auto& r : ranges) {
    if (r.second + 1 >= lo && r.first <= (hi == kInvalidData ? hi : hi + 1)) {
      lo = std::min(lo, r.first);
      hi = std::max(hi, r.second);
    } else {
      merged.push_back(r);
    }
  }
  merged.emplace_back(lo, hi);
  std::sort(merged.begin(), merged.end());
  lost_ranges_ += merged.size();
  lost_ranges_ -= ranges.size();
  ranges = std::move(merged);
  note_mutation(now, was);
}

void FailureView::clear_lost_range(double now, DiskId k, DataId lo,
                                   DataId hi) {
  const bool was = degraded();
  auto& ranges = lost_.at(k);
  std::vector<std::pair<DataId, DataId>> kept;
  kept.reserve(ranges.size());
  for (const auto& r : ranges) {
    if (r.second < lo || r.first > hi) {
      kept.push_back(r);  // untouched
      continue;
    }
    // Keep any part of r outside [lo, hi].
    if (r.first < lo) kept.emplace_back(r.first, lo - 1);
    if (r.second > hi) kept.emplace_back(hi + 1, r.second);
  }
  lost_ranges_ += kept.size();
  lost_ranges_ -= ranges.size();
  ranges = std::move(kept);
  note_mutation(now, was);
}

std::pair<double, std::uint64_t> FailureView::finalize_degraded(
    double horizon) {
  if (degraded()) {
    EAS_REQUIRE_MSG(horizon >= degraded_since_,
                    "finalize horizon precedes the open degraded episode");
    degraded_seconds_ += horizon - degraded_since_;
    degraded_since_ = horizon;  // idempotent-ish for a later, larger horizon
  }
  return {degraded_seconds_, degraded_episodes_};
}

}  // namespace eas::fault
