// The §3.1 MWIS offline scheduler.
//
// Pipeline (Fig 4): build the conflict graph over X(i,j,k) opportunities,
// solve maximum-weight independent set, then read the schedule off the
// selected nodes (request i and its successor j both go to disk k). Requests
// that appear in no selected node cannot save energy anywhere and default to
// their original location (Step 4's "any of its data locations").
//
// Solvers: GWMIN (the paper's choice, [22]), GWMIN2, or exact
// branch-and-bound for small instances.
#pragma once

#include <cstdint>
#include <vector>

#include "core/conflict_graph.hpp"
#include "core/offline_eval.hpp"
#include "core/refine.hpp"
#include "core/scheduler.hpp"

namespace eas::core {

struct MwisOptions {
  enum class Algorithm { kGwmin, kGwmin2, kExact };
  Algorithm algorithm = Algorithm::kGwmin;
  ConflictGraphOptions graph;
  /// Safety bound for the exact solver.
  std::size_t exact_vertex_limit = 48;
  /// Local-search passes applied to the derived assignment (see refine.hpp);
  /// 0 reproduces the paper's plain GWMIN pipeline. GWMIN's score biases it
  /// toward low-conflict (cold-disk) opportunities, and the refinement is
  /// the "more sophisticated algorithm" §5.1 alludes to.
  std::size_t refine_passes = 3;

  /// Which initial assignment feeds the refinement:
  ///  * kSolverOnly — the paper's pipeline: MWIS selection + Step-4 fallback;
  ///  * kPileOnly   — Step 4's densest-pile greedy applied to *every*
  ///                  request (a forward sweep maximising each predecessor's
  ///                  realised Eq. 3 saving);
  ///  * kBest       — run both, keep whichever refines to less Lemma-1
  ///                  energy. Default: on smooth (low-burstiness) workloads
  ///                  the pile seed escapes GWMIN's cold-disk bias.
  enum class Seed { kSolverOnly, kPileOnly, kBest };
  Seed seed = Seed::kBest;
};

class MwisOfflineScheduler final : public OfflineScheduler {
 public:
  explicit MwisOfflineScheduler(MwisOptions options = {})
      : options_(options) {}

  std::string name() const override;

  OfflineAssignment schedule(const trace::Trace& trace,
                             const placement::PlacementMap& placement,
                             const disk::DiskPowerParams& power) override;

  /// Diagnostics from the most recent schedule() call.
  double last_selected_saving() const { return last_saving_; }
  std::size_t last_graph_nodes() const { return last_nodes_; }
  std::size_t last_graph_edges() const { return last_edges_; }
  std::size_t last_selected_count() const { return last_selected_; }
  /// True when the kBest comparison kept the pile seed.
  bool last_used_pile_seed() const { return last_used_pile_; }

 private:
  /// Steps 1-4 up to the fallback: builds the conflict graph, solves MWIS
  /// on it, and assigns the requests the selected nodes name (the rest stay
  /// kInvalidDisk). The graph is freed on return.
  OfflineAssignment select_opportunities(
      const trace::Trace& trace, const placement::PlacementMap& placement,
      const disk::DiskPowerParams& power);

  MwisOptions options_;
  double last_saving_ = 0.0;
  std::size_t last_nodes_ = 0;
  std::size_t last_edges_ = 0;
  std::size_t last_selected_ = 0;
  bool last_used_pile_ = false;
  /// Scratch reused across schedule() calls (one scheduler instance often
  /// runs many traces in an ablation loop).
  ConflictGraphWorkspace graph_ws_;
  GwminWorkspace gwmin_ws_;
  std::vector<std::uint32_t> selected_;
  OfflineEvalWorkspace eval_ws_;
  RefineWorkspace refine_ws_;
};

}  // namespace eas::core
