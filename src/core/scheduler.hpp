// Scheduler interfaces for the three §2.2 models.
//
// The information each interface receives enforces the paper's model at the
// type level: an OnlineScheduler sees one request and the live system state;
// a BatchScheduler sees the interval's queued requests and the live state;
// an OfflineScheduler sees the entire trace up front (and nothing live —
// its run is evaluated afterwards).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/energy_model.hpp"
#include "disk/disk.hpp"
#include "disk/params.hpp"
#include "disk/request.hpp"
#include "fault/failure_view.hpp"
#include "placement/placement.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"

namespace eas::core {

/// What online and batch schedulers see of the running system: placement,
/// power model, clock and each disk's live status row, read in place. The
/// tier overlays (failure view, pending destage, backpressure) start off.
class SystemView {
 public:
  SystemView(const placement::PlacementMap& placement,
             const disk::DiskPowerParams& power,
             std::span<const disk::DiskStatus> disks)
      : placement_(&placement), power_(&power), disks_(disks) {
    EAS_REQUIRE(disks.size() == placement.num_disks());
  }

  void set_now(double t) { now_ = t; }
  void set_failure_view(const fault::FailureView* fv) { failure_view_ = fv; }
  /// One count per disk, read in place.
  void set_pending_destage(std::span<const std::uint64_t> per_disk) {
    pending_destage_ = per_disk;
  }
  /// Queue depth at which a disk is backpressured; 0 turns it off.
  void set_backpressure_watermark(std::size_t depth) { watermark_ = depth; }

  double now() const { return now_; }
  const placement::PlacementMap& placement() const { return *placement_; }
  DiskId num_disks() const { return placement_->num_disks(); }
  const disk::DiskPowerParams& power_params() const { return *power_; }
  const disk::DiskStatus& disk(DiskId k) const {
    EAS_DCHECK(k < disks_.size());
    return disks_[k];
  }

  /// Live health overlay, or nullptr in a fault-free run. While it reports
  /// degraded(), schedulers must pick readable replicas only; otherwise the
  /// raw placement lists are authoritative (keeping the fast path exact).
  const fault::FailureView* failure_view() const { return failure_view_; }
  bool degraded() const {
    return failure_view_ != nullptr && failure_view_->degraded();
  }
  /// Dirty blocks awaiting destage onto disk `k` (0 without a cache tier):
  /// waking that disk also flushes them, so cost schedulers discount it.
  std::uint64_t pending_destage(DiskId k) const {
    return pending_destage_.empty() ? 0 : pending_destage_[k];
  }
  /// True while disk `k`'s queue, in-service request included, has reached
  /// the watermark (never without the reliability tier): cost schedulers
  /// penalise it so load drains toward disks with headroom.
  bool backpressured(DiskId k) const {
    return watermark_ > 0 && disk(k).queued_requests >= watermark_;
  }

 private:
  const placement::PlacementMap* placement_;
  const disk::DiskPowerParams* power_;
  double now_ = 0.0;
  const fault::FailureView* failure_view_ = nullptr;
  std::span<const disk::DiskStatus> disks_;
  std::span<const std::uint64_t> pending_destage_;
  std::size_t watermark_ = 0;
};

/// §2.2 online model: one request, immediate decision.
class OnlineScheduler {
 public:
  virtual ~OnlineScheduler() = default;
  virtual std::string name() const = 0;

  /// Returns the disk the request should be sent to. Must be one of the
  /// request's data locations (the runner enforces this), and a readable one
  /// when the view is degraded. Returns kInvalidDisk when no live replica of
  /// the data exists — the runner counts the request unavailable.
  virtual DiskId pick(const disk::Request& r, const SystemView& view) = 0;
};

/// §2.2 batch model: requests queue up and are assigned together every
/// scheduling interval.
class BatchScheduler {
 public:
  virtual ~BatchScheduler() = default;
  virtual std::string name() const = 0;
  virtual double batch_interval_seconds() const = 0;

  /// Returns one disk per request (same order as `batch`); each must hold
  /// the respective request's data (a readable replica when the view is
  /// degraded). An entry is kInvalidDisk when no live replica of that
  /// request's data exists — the runner counts it unavailable.
  virtual std::vector<DiskId> assign(const std::vector<disk::Request>& batch,
                                     const SystemView& view) = 0;
};

/// A complete offline assignment: disk_of_request[i] is the disk serving the
/// i-th trace record.
struct OfflineAssignment {
  std::vector<DiskId> disk_of_request;

  /// Throws InvariantError unless every request is assigned to a disk that
  /// stores its data.
  void validate(const trace::Trace& trace,
                const placement::PlacementMap& placement) const;

  /// Dispatch times grouped per disk (sorted), as OraclePolicy expects.
  std::vector<std::vector<double>> arrivals_by_disk(
      const trace::Trace& trace, DiskId num_disks) const;
};

/// §2.2 offline model: full a-priori knowledge of the request stream.
class OfflineScheduler {
 public:
  virtual ~OfflineScheduler() = default;
  virtual std::string name() const = 0;

  virtual OfflineAssignment schedule(const trace::Trace& trace,
                                     const placement::PlacementMap& placement,
                                     const disk::DiskPowerParams& power) = 0;
};

}  // namespace eas::core
