// Local-search refinement of offline assignments.
//
// §5.1 of the paper notes that "WSC and MWIS could achieve even lower energy
// by using more sophisticated set cover and independent set algorithms".
// This pass is that sophistication for the offline side: a hill-climb that
// repeatedly moves single requests between replica locations whenever the
// move lowers the schedule's Lemma-1 energy.
//
// Why single-request deltas are exact: under the offline evaluator, total
// energy equals the sum of per-request consumptions plus standby floor —
// each used disk's initial spin-up is exactly offset by the final request's
// ceiling charge — so moving one request only perturbs the consumptions of
// its old/new disk neighbours, which is O(replication factor · log n) to
// evaluate.
#pragma once

#include <cstdint>
#include <vector>

#include "core/scheduler.hpp"

namespace eas::core {

struct RefineStats {
  std::size_t passes = 0;
  std::size_t moves = 0;       ///< single-request relocations
  std::size_t pair_moves = 0;  ///< adjacent-pair relocations
  double energy_delta = 0.0;   ///< total (negative = improvement)
};

/// Reusable scratch for refine_offline_assignment. A Trace is stably
/// time-sorted, so request-index order is (time, index) order and every
/// per-disk list below is a plain sorted array of request indices.
struct RefineWorkspace {
  /// Requests currently assigned to each disk, ascending.
  std::vector<std::vector<std::uint32_t>> on_disk;
  /// Requests whose data each disk stores (assigned there or not),
  /// ascending: the candidates a change on that disk can affect.
  std::vector<std::vector<std::uint32_t>> stores;
  /// pos[r]: r's index within on_disk[disk_of_request[r]].
  std::vector<std::uint32_t> pos;
  /// Per request, bit 0 / bit 1: its pair / single move must be
  /// re-evaluated because something it reads changed since it last was.
  std::vector<std::uint8_t> dirty;
};

/// Greedily reassigns requests to lower-energy replica locations, sweeping
/// the trace in time order until a pass makes no move or `max_passes` is
/// reached. Each pass combines single-request moves with adjacent-pair
/// moves: relocating two consecutive requests of one disk together escapes
/// the plateaus where the first single move alone is energy-neutral (e.g.
/// migrating an isolated saving pair onto an otherwise-unused replica).
/// The assignment is modified in place and stays valid.
RefineStats refine_offline_assignment(OfflineAssignment& assignment,
                                      const trace::Trace& trace,
                                      const placement::PlacementMap& placement,
                                      const disk::DiskPowerParams& power,
                                      std::size_t max_passes = 3);

/// As above, reusing `ws` buffers across calls.
RefineStats refine_offline_assignment(OfflineAssignment& assignment,
                                      const trace::Trace& trace,
                                      const placement::PlacementMap& placement,
                                      const disk::DiskPowerParams& power,
                                      std::size_t max_passes,
                                      RefineWorkspace& ws);

}  // namespace eas::core
