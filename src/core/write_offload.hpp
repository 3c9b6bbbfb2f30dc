// Write off-loading (§2.1, after Narayanan et al. [17]).
//
// The paper's scheduler handles reads only, assuming writes "can be assigned
// to one or more idle disks in the system using techniques such as write
// off-loading". This module implements that substrate so mixed read/write
// traces can be evaluated end to end:
//
//  * a write whose home disk is spinning goes home (no diversion);
//  * otherwise it is diverted — preferably to a spinning *replica* location
//    (the data lands somewhere it already belongs), else to the cheapest
//    spinning disk anywhere in the system;
//  * if nothing is spinning the home disk must be woken (cold-system case);
//  * subsequent reads of a diverted block are served from the diversion
//    target until the block is reclaimed;
//  * reclamation is lazy: the first time the block is touched while its
//    home disk happens to be spinning anyway, the diversion is retired
//    (the write-back rides on an already-paid spin-up).
//
// The manager is deliberately scheduler-agnostic: it only consults the
// SystemView the §2.2 online model already exposes.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "core/scheduler.hpp"

namespace eas::core {

struct WriteOffloadOptions {
  /// Divert writes away from sleeping home disks at all; false reproduces a
  /// naive system that wakes the home disk for every write.
  bool enabled = true;
  /// Cost weighting used when choosing among spinning diversion targets.
  CostParams cost{};
};

struct WriteOffloadStats {
  std::uint64_t writes_total = 0;
  std::uint64_t writes_home = 0;        ///< home disk was spinning
  std::uint64_t writes_diverted = 0;    ///< landed on a foreign spinning disk
  std::uint64_t writes_woke_home = 0;   ///< nothing spinning: paid a wake
  std::uint64_t reads_redirected = 0;   ///< served from a diversion target
  std::uint64_t reclaims = 0;           ///< diversions retired lazily
};

class WriteOffloadManager {
 public:
  explicit WriteOffloadManager(WriteOffloadOptions options = {})
      : options_(options) {}

  /// Chooses the disk for a write request and updates the diversion table.
  DiskId route_write(const disk::Request& r, const SystemView& view);

  /// Where a read of `data` must go if the latest version lives off-site;
  /// also performs lazy reclamation (see header comment), so a non-empty
  /// result is always a disk that must be used *instead of* placement.
  std::optional<DiskId> read_override(DataId data, const SystemView& view);

  /// Number of blocks currently living away from their placement.
  std::size_t diverted_blocks() const { return diverted_.size(); }
  const WriteOffloadStats& stats() const { return stats_; }

 private:
  static bool is_spinning(const disk::DiskStatus& s) {
    return s.state == disk::DiskState::Idle ||
           s.state == disk::DiskState::Active ||
           s.state == disk::DiskState::SpinningUp;
  }

  WriteOffloadOptions options_;
  std::unordered_map<DataId, DiskId> diverted_;
  WriteOffloadStats stats_;
};

}  // namespace eas::core
