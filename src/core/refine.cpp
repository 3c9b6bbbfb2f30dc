#include "core/refine.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/conflict_graph.hpp"
#include "core/energy_model.hpp"
#include "util/check.hpp"

namespace eas::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint8_t kPairDirty = 1;
constexpr std::uint8_t kSingleDirty = 2;

/// The best relocation found for one request: `disk` is its current disk
/// when no move improves by more than the strict-improvement margin.
struct Move {
  DiskId disk = kInvalidDisk;
  double delta = 0.0;
};

/// The hill-climb's state over one assignment: per-disk sorted request
/// lists with a position index, and the dirty flags that let a later pass
/// skip every request whose evaluation inputs are unchanged.
class Refiner {
 public:
  Refiner(OfflineAssignment& a, const trace::Trace& trace,
          const placement::PlacementMap& placement,
          const disk::DiskPowerParams& power, RefineWorkspace& ws)
      : disk_of_(a.disk_of_request),
        trace_(trace),
        placement_(placement),
        energy_(power),
        ws_(ws) {
    const auto n = static_cast<std::uint32_t>(trace.size());
    ws.on_disk.resize(placement.num_disks());
    for (auto& list : ws.on_disk) list.clear();
    ws.pos.resize(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      auto& list = ws.on_disk[disk_of_[r]];
      ws.pos[r] = static_cast<std::uint32_t>(list.size());
      list.push_back(r);
    }
    list_requests_by_stored_disk(trace, placement, ws.stores);
    ws.dirty.assign(n, kPairDirty | kSingleDirty);
  }

  /// Takes request r's dirty bit `bit`: true when r must be evaluated.
  bool take_dirty(std::uint32_t r, std::uint8_t bit) {
    const bool was = (ws_.dirty[r] & bit) != 0;
    ws_.dirty[r] &= static_cast<std::uint8_t>(~bit);
    return was;
  }

  /// Adjacent-pair move: relocate request r (at t1) together with its
  /// disk's immediately following request s (at t2) onto a destination
  /// that stores both and has no element inside (t1, t2). The shared
  /// cons(t1, t2) term cancels between removal and insertion. Read-only.
  Move best_pair_move(std::uint32_t r) const {
    const double t1 = time(r);
    const DiskId from = disk_of_[r];
    const auto& src = ws_.on_disk[from];
    const std::uint32_t i = ws_.pos[r];
    EAS_DCHECK(src[i] == r);
    Move best{from, -1e-9};
    if (i + 1 == src.size()) return best;
    const std::uint32_t s = src[i + 1];
    const double t2 = time(s);

    // Source-side delta (minus the cancelling cons(t1, t2) term).
    const double t_q = i + 2 < src.size() ? time(src[i + 2]) : kInf;
    double delta_remove = -cons(t2, t_q);
    if (i > 0) {
      const double t_p = time(src[i - 1]);
      delta_remove += cons(t_p, t_q) - cons(t_p, t1);
    }

    for (DiskId k : placement_.locations(trace_[r].data)) {
      if (k == from || !placement_.stores(trace_[s].data, k)) continue;
      const auto& dst = ws_.on_disk[k];
      const auto pos1 = std::lower_bound(dst.begin(), dst.end(), r);
      // Require the destination gap to be empty so both insertions stay
      // adjacent and the delta stays closed-form.
      if (pos1 != dst.end() && time(*pos1) < t2) continue;
      const double t_next = pos1 == dst.end() ? kInf : time(*pos1);
      double delta_insert = cons(t2, t_next);
      if (pos1 != dst.begin()) {
        const double t_p = time(*(pos1 - 1));
        delta_insert += cons(t_p, t1) - cons(t_p, t_next);
      }
      const double delta = delta_remove + delta_insert;
      if (delta < best.delta) best = {k, delta};
    }
    return best;
  }

  /// Single move: relocate request r alone to the replica whose gap around
  /// r's time absorbs it most cheaply. Read-only.
  Move best_single_move(std::uint32_t r) const {
    const double t = time(r);
    const DiskId from = disk_of_[r];
    const auto& src = ws_.on_disk[from];
    const std::uint32_t i = ws_.pos[r];
    EAS_DCHECK(src[i] == r);

    // Cost change on the source disk if r leaves.
    const double t_next_src = i + 1 < src.size() ? time(src[i + 1]) : kInf;
    double delta_remove = -cons(t, t_next_src);
    if (i > 0) {
      const double t_prev = time(src[i - 1]);
      delta_remove += cons(t_prev, t_next_src) - cons(t_prev, t);
    }

    Move best{from, -1e-9};  // strict improvement only
    for (DiskId k : placement_.locations(trace_[r].data)) {
      if (k == from) continue;
      const auto& dst = ws_.on_disk[k];
      const auto pos = std::lower_bound(dst.begin(), dst.end(), r);
      const double t_next = pos == dst.end() ? kInf : time(*pos);
      double delta_insert = cons(t, t_next);
      if (pos != dst.begin()) {
        const double t_prev = time(*(pos - 1));
        delta_insert += cons(t_prev, t) - cons(t_prev, t_next);
      }
      const double delta = delta_remove + delta_insert;
      if (delta < best.delta) best = {k, delta};
    }
    return best;
  }

  /// Moves request r from its disk to `to`, keeping both lists sorted and
  /// the position index current, and marks everything the move can change.
  void relocate(std::uint32_t r, DiskId to) {
    const DiskId from = disk_of_[r];
    auto& src = ws_.on_disk[from];
    const std::uint32_t i = ws_.pos[r];
    mark_around(from, i);
    src.erase(src.begin() + i);
    reindex(src, i);

    auto& dst = ws_.on_disk[to];
    const auto at = std::lower_bound(dst.begin(), dst.end(), r);
    const auto j = static_cast<std::uint32_t>(at - dst.begin());
    dst.insert(at, r);
    reindex(dst, j);
    disk_of_[r] = to;
    mark_around(to, j);
  }

  /// Moves request r and its successor on r's disk to `to` together.
  void relocate_pair(std::uint32_t r, DiskId to) {
    const std::uint32_t s = ws_.on_disk[disk_of_[r]][ws_.pos[r] + 1];
    relocate(r, to);
    relocate(s, to);
  }

 private:
  double time(std::uint32_t r) const { return trace_[r].time; }

  /// Lemma-1 consumption between a request at `ti` and its successor at
  /// `tj`; tj = +inf denotes "no successor" and yields the ceiling.
  double cons(double ti, double tj) const {
    return energy_.consumption(ti, tj);
  }

  void reindex(const std::vector<std::uint32_t>& list, std::uint32_t from) {
    for (auto p = from; p < list.size(); ++p) ws_.pos[list[p]] = p;
  }

  /// Request x sits at index i of disk d's list and is about to leave it,
  /// or has just entered it. Marks every request whose move evaluation
  /// reads something this changes: x's two predecessors (next, next-next)
  /// and its successor (previous) on d; and every request whose data d
  /// stores and whose index lies strictly between x's neighbours on d —
  /// exactly those see x as their predecessor or successor when d is a
  /// candidate destination. x itself is one of the latter.
  void mark_around(DiskId d, std::uint32_t i) {
    const auto& list = ws_.on_disk[d];
    if (i >= 1) mark(list[i - 1]);
    if (i >= 2) mark(list[i - 2]);
    if (i + 1 < list.size()) mark(list[i + 1]);
    const auto& stored = ws_.stores[d];
    auto lo = stored.begin();
    auto hi = stored.end();
    if (i >= 1) lo = std::upper_bound(lo, hi, list[i - 1]);
    if (i + 1 < list.size()) hi = std::lower_bound(lo, hi, list[i + 1]);
    for (auto it = lo; it != hi; ++it) mark(*it);
  }

  void mark(std::uint32_t r) { ws_.dirty[r] = kPairDirty | kSingleDirty; }

  std::vector<DiskId>& disk_of_;
  const trace::Trace& trace_;
  const placement::PlacementMap& placement_;
  const PairwiseEnergy energy_;
  RefineWorkspace& ws_;
};

}  // namespace

RefineStats refine_offline_assignment(OfflineAssignment& assignment,
                                      const trace::Trace& trace,
                                      const placement::PlacementMap& placement,
                                      const disk::DiskPowerParams& power,
                                      std::size_t max_passes) {
  RefineWorkspace ws;
  return refine_offline_assignment(assignment, trace, placement, power,
                                   max_passes, ws);
}

RefineStats refine_offline_assignment(OfflineAssignment& assignment,
                                      const trace::Trace& trace,
                                      const placement::PlacementMap& placement,
                                      const disk::DiskPowerParams& power,
                                      std::size_t max_passes,
                                      RefineWorkspace& ws) {
  assignment.validate(trace, placement);
  Refiner refiner(assignment, trace, placement, power, ws);
  const auto n = static_cast<std::uint32_t>(trace.size());

  // Every request is evaluated on the first pass. A later evaluation is
  // skipped unless a move since the last one marked the request dirty: its
  // inputs are then unchanged, so it would again find no move, and the
  // sweeps make exactly the moves an evaluate-everything sweep makes.
  RefineStats stats;
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    std::size_t moves_this_pass = 0;
    for (std::uint32_t r = 0; r < n; ++r) {
      if (!refiner.take_dirty(r, kPairDirty)) continue;
      const Move m = refiner.best_pair_move(r);
      if (m.disk == assignment.disk_of_request[r]) continue;
      refiner.relocate_pair(r, m.disk);
      stats.energy_delta += m.delta;
      ++stats.pair_moves;
      ++moves_this_pass;
    }
    for (std::uint32_t r = 0; r < n; ++r) {
      if (!refiner.take_dirty(r, kSingleDirty)) continue;
      if (placement.locations(trace[r].data).size() < 2) continue;
      const Move m = refiner.best_single_move(r);
      if (m.disk == assignment.disk_of_request[r]) continue;
      refiner.relocate(r, m.disk);
      ++moves_this_pass;
      stats.energy_delta += m.delta;
    }
    ++stats.passes;
    stats.moves += moves_this_pass;
    if (moves_this_pass == 0) break;
  }
  assignment.validate(trace, placement);
  return stats;
}

}  // namespace eas::core
