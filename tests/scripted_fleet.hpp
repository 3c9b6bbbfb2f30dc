// A fleet for scheduler unit tests: a placement, one disk status row per
// disk that the test sets directly, and the core::SystemView over them.
// Rows start as the storage system's disks do — standby, never served,
// empty queue — and the view reads them by reference, so a row the test
// changes is what the next pick sees.
#pragma once

#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "disk/disk.hpp"
#include "paper_example.hpp"
#include "placement/placement.hpp"

namespace eas::testing {

struct ScriptedFleet {
  explicit ScriptedFleet(placement::PlacementMap pm,
                         disk::DiskPowerParams p = example_power())
      : placement(std::move(pm)),
        power(p),
        rows(placement.num_disks()),
        view(placement, power, rows) {}
  // The view points into the members.
  ScriptedFleet(const ScriptedFleet&) = delete;
  ScriptedFleet& operator=(const ScriptedFleet&) = delete;

  placement::PlacementMap placement;
  disk::DiskPowerParams power;
  std::vector<disk::DiskStatus> rows;
  core::SystemView view;
};

}  // namespace eas::testing
