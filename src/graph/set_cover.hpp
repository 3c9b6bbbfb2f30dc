// Weighted set cover: the combinatorial core of batch scheduling (§3.2).
//
// Theorem 2 reduces one batch scheduling round to weighted set cover:
// elements are queued requests, sets are disks (weighted by the marginal
// energy Eq. 5 charges for waking/extending them), and a minimum-weight
// cover is a minimum-energy batch assignment.
//
// Two solvers:
//  * greedy_weighted_set_cover — the classic H_n-approximation the paper
//    uses (iteratively take the most cost-effective set);
//  * exact_set_cover — branch-and-bound, exponential, for optimality-gap
//    ablations and solver cross-validation on small instances.
#pragma once

#include <optional>
#include <vector>

namespace eas::graph {

struct SetCoverInstance {
  /// Universe is {0, 1, ..., num_elements-1}.
  std::size_t num_elements = 0;

  struct Set {
    double weight = 0.0;  ///< must be >= 0
    std::vector<std::size_t> elements;
  };
  std::vector<Set> sets;

  /// Throws InvariantError on out-of-range elements or negative weights.
  void validate() const;

  /// True when every element appears in at least one set.
  bool feasible() const;
};

struct SetCoverSolution {
  std::vector<std::size_t> chosen_sets;  ///< indices into instance.sets
  double total_weight = 0.0;

  bool covers(const SetCoverInstance& instance) const;
};

/// Executable cover contract: throws InvariantError naming the first
/// uncovered element (or out-of-range set) when `sol` does not cover
/// `instance`. Solvers call this as a postcondition under EASCHED_AUDIT;
/// tests call it directly to prove the contract fires.
void check_cover(const SetCoverSolution& sol, const SetCoverInstance& instance);

/// Reusable scratch for greedy_weighted_set_cover. Callers that solve a
/// stream of instances (the batch scheduler solves one per scheduling
/// interval) keep one workspace alive so warm solves allocate nothing: every
/// buffer, the solution included, keeps its capacity across calls.
struct SetCoverWorkspace {
  /// Element -> sets CSR, one entry per (set, element) occurrence:
  /// element e's sets are sets_of[row[e] .. row[e + 1]).
  std::vector<std::size_t> row;
  std::vector<std::size_t> sets_of;
  /// Per set: still-uncovered occurrences, and weight / fresh while > 0.
  std::vector<std::size_t> fresh;
  std::vector<double> ratio;
  /// Sets that may still cover something, in ascending index.
  std::vector<std::size_t> live;
  std::vector<char> covered;
  SetCoverSolution solution;
};

/// Greedy H_n-approximation: repeatedly select the set minimising
/// weight / (newly covered elements); zero-weight sets are free and picked
/// first. Throws InvariantError if the instance is infeasible, has a
/// negative weight or names an out-of-range element.
///
/// Each round takes the lexicographic minimum of (ratio, -fresh count, set
/// index) over the live sets, in one scan. The counts are exact, not
/// recounted: covering an element decrements every set that holds it, via
/// the element -> sets CSR. The chosen sequence is bit-identical to the
/// full recount-per-round rule.
SetCoverSolution greedy_weighted_set_cover(const SetCoverInstance& instance);

/// As above, solving into `ws.solution` and returning it. The reference
/// stays valid until the next solve with `ws`.
const SetCoverSolution& greedy_weighted_set_cover(
    const SetCoverInstance& instance, SetCoverWorkspace& ws);

/// Exact minimum-weight cover by branch-and-bound (branching on the
/// uncovered element with the fewest candidate sets). Returns nullopt if the
/// instance is infeasible. Intended for small instances (tests, ablations);
/// `max_elements` guards against accidental exponential blowups.
std::optional<SetCoverSolution> exact_set_cover(
    const SetCoverInstance& instance, std::size_t max_elements = 24);

}  // namespace eas::graph
