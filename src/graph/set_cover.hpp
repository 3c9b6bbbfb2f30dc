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
/// interval) keep one workspace alive so steady-state solves reuse the
/// heap/mark buffers instead of reallocating them.
struct SetCoverWorkspace {
  /// Candidate entry in the greedy selection heap. `fresh` is the number of
  /// still-uncovered elements the set held when the entry was pushed; it can
  /// only shrink afterwards, which is what makes lazy reinsertion exact.
  struct Candidate {
    double ratio = 0.0;  ///< weight / fresh at push time
    std::size_t fresh = 0;
    std::size_t set = 0;
  };
  std::vector<char> covered;
  std::vector<Candidate> heap;
};

/// Greedy H_n-approximation: repeatedly select the set minimising
/// weight / (newly covered elements); zero-weight sets are free and picked
/// first. Throws InvariantError if the instance is infeasible.
///
/// Selection is by lazy min-heap over (ratio, -fresh count, set index).
/// A set's key only ever increases as elements get covered, so an entry
/// whose cached count went stale is reinserted with its refreshed key; a
/// popped entry with an exact count is provably the global minimum. The
/// chosen sequence is bit-identical to a full linear scan per round.
SetCoverSolution greedy_weighted_set_cover(const SetCoverInstance& instance);

/// As above, reusing `ws` buffers across calls (no steady-state allocation
/// beyond the returned solution).
SetCoverSolution greedy_weighted_set_cover(const SetCoverInstance& instance,
                                           SetCoverWorkspace& ws);

/// Exact minimum-weight cover by branch-and-bound (branching on the
/// uncovered element with the fewest candidate sets). Returns nullopt if the
/// instance is infeasible. Intended for small instances (tests, ablations);
/// `max_elements` guards against accidental exponential blowups.
std::optional<SetCoverSolution> exact_set_cover(
    const SetCoverInstance& instance, std::size_t max_elements = 24);

}  // namespace eas::graph
