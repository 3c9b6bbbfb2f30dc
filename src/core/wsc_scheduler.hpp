// The §3.2 weighted-set-cover batch scheduler.
//
// Requests queue for one scheduling interval (0.1 s in the paper) and the
// whole batch is assigned at once: elements are the queued requests, sets
// are candidate disks, and a set's weight is what waking/extending that disk
// costs. Theorem 2 proves minimum-weight cover == minimum-energy batch when
// pure Eq. 5 weights are used; §4.3 runs it with the Heuristic's composite
// cost function instead, so both weight modes are provided.
#pragma once

#include <cstdint>

#include "core/scheduler.hpp"
#include "graph/set_cover.hpp"

namespace eas::core {

class WscBatchScheduler final : public BatchScheduler {
 public:
  enum class WeightMode {
    kCompositeCost,  ///< Eq. 6 cost (the paper's §4.3 configuration)
    kPureEnergy,     ///< Eq. 5 energy only (the Theorem 2 reduction)
  };

  explicit WscBatchScheduler(double interval_seconds = 0.1,
                             CostParams cost = {},
                             WeightMode mode = WeightMode::kCompositeCost)
      : interval_(interval_seconds), cost_(cost), mode_(mode) {
    EAS_REQUIRE_MSG(interval_ > 0.0, "batch interval must be positive");
  }

  std::string name() const override;
  double batch_interval_seconds() const override { return interval_; }

  std::vector<DiskId> assign(const std::vector<disk::Request>& batch,
                             const SystemView& view) override;

  /// The last assign()'s cover: chosen sets in greedy order, as indices
  /// into that batch's candidate disks, and their total weight.
  const graph::SetCoverSolution& last_cover() const {
    return cover_ws_.solution;
  }

  /// Builds the weighted-set-cover instance for a batch (exposed so tests
  /// and the greedy-vs-exact ablation can inspect/solve it directly).
  /// `candidate_disks` receives the disk id behind each instance set.
  graph::SetCoverInstance build_instance(
      const std::vector<disk::Request>& batch, const SystemView& view,
      std::vector<DiskId>& candidate_disks) {
    build_cover(batch, view);
    candidate_disks = candidates_;
    return cover_;  // copies
  }

 private:
  /// Fills cover_, candidates_ and elem_req_ for the batch in one pass:
  /// each coverable request becomes an element whose sets are its readable
  /// replicas' disks in replica order; each disk seen becomes a set, priced
  /// when first seen; the set rows are then a counting-sort transpose.
  void build_cover(const std::vector<disk::Request>& batch,
                   const SystemView& view);

  double interval_;
  CostParams cost_;
  WeightMode mode_;

  // Scratch reused across batches: the scheduler runs one assign() per
  // scheduling interval (0.1 s of simulated time). Every buffer below keeps
  // its capacity, the cover solution included (it lives in cover_ws_), so a
  // warm batch allocates exactly once: the assignment assign() returns by
  // value. A batch larger than any before it still grows the buffers.
  /// Dense DiskId -> set-index map; entries are restored to the sentinel
  /// after every build, so only touched disks cost anything per batch.
  std::vector<std::uint32_t> set_of_disk_;
  /// The batch's instance, rebuilt in place by build_cover.
  graph::SetCoverInstance cover_;
  /// The disk behind each instance set.
  std::vector<DiskId> candidates_;
  /// Instance element -> batch index. Identity on the healthy path; under a
  /// degraded view, requests with no readable replica are skipped so the
  /// set-cover universe stays feasible.
  std::vector<std::uint32_t> elem_req_;
  /// Greedy scratch, the solution and each element's covering set.
  graph::SetCoverWorkspace cover_ws_;
};

}  // namespace eas::core
