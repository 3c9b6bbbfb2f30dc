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

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace eas::graph {

/// An instance in compressed rows, held both ways round: set -> elements
/// (what a chosen set covers) and element -> sets (whose fresh counts drop
/// when an element is covered). The batch scheduler fills the element rows
/// straight from its batch and transposes them; make_set_cover builds an
/// instance from per-set lists.
struct SetCoverInstance {
  /// One weight per set; each must be >= 0.
  std::vector<double> weights;
  /// Set s holds set_elements[set_start[s] .. set_start[s + 1]).
  std::vector<std::uint32_t> set_start = {0};
  std::vector<std::uint32_t> set_elements;
  /// Element e lies in element_sets[element_start[e] .. element_start[e +
  /// 1]). The universe is {0, 1, ..., num_elements() - 1}.
  std::vector<std::uint32_t> element_start = {0};
  std::vector<std::uint32_t> element_sets;

  std::size_t num_sets() const { return set_start.size() - 1; }
  std::size_t num_elements() const { return element_start.size() - 1; }

  std::span<const std::uint32_t> elements(std::size_t s) const {
    return {set_elements.data() + set_start[s],
            set_elements.data() + set_start[s + 1]};
  }
  std::span<const std::uint32_t> sets_of(std::size_t e) const {
    return {element_sets.data() + element_start[e],
            element_sets.data() + element_start[e + 1]};
  }

  /// Throws InvariantError on mismatched rows, out-of-range elements or
  /// negative weights.
  void validate() const;

  /// True when every element appears in at least one set.
  bool feasible() const;
};

/// One set as a weight and a member list, for building instances by hand.
struct SetSpec {
  double weight = 0.0;
  std::vector<std::uint32_t> elements;
};

/// The instance with universe {0 .. num_elements - 1} and these sets, in
/// order. Element rows list sets ascending. An out-of-range member stays in
/// its set's row, for validate() and the solvers to name, but indexes no
/// element row.
SetCoverInstance make_set_cover(std::size_t num_elements,
                                const std::vector<SetSpec>& sets);

/// Counting-sort transpose of compressed rows: row r's columns are
/// cols[start[r] .. start[r + 1]). Fills `out_start`/`out_rows` so column
/// c's rows are out_rows[out_start[c] .. out_start[c + 1]), ascending.
/// Columns >= num_cols are skipped.
void transpose_rows(std::span<const std::uint32_t> start,
                    std::span<const std::uint32_t> cols, std::size_t num_cols,
                    std::vector<std::uint32_t>& out_start,
                    std::vector<std::uint32_t>& out_rows);

struct SetCoverSolution {
  std::vector<std::size_t> chosen_sets;  ///< indices into instance sets
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
  /// cover_of's entry for an element no chosen set holds.
  static constexpr std::uint32_t kUncovered = ~std::uint32_t{0};

  /// A set's greedy key as of when it was last keyed, packed so that the
  /// greedy order is the order of (ratio_bits, rank): the ratio
  /// weight / fresh as the bits of a non-negative double, which order as
  /// the doubles do, then rank = (~fresh << 32) | set, so more fresh
  /// elements and then a lower index come first.
  struct Candidate {
    std::uint64_t ratio_bits;
    std::uint64_t rank;
  };

  /// Per set: still-uncovered occurrences.
  std::vector<std::uint32_t> fresh;
  /// Min-heap of candidates, one per set that still covers something. A
  /// key only worsens as its set's fresh count drops, so an entry whose
  /// count has since dropped is re-keyed when it reaches the top.
  std::vector<Candidate> heap;
  /// Per element: the chosen set that covered it first — the earliest in
  /// greedy order that holds it. Valid after a solve.
  std::vector<std::uint32_t> cover_of;
  SetCoverSolution solution;
};

/// Greedy H_n-approximation: repeatedly select the set minimising
/// weight / (newly covered elements); zero-weight sets are free and picked
/// first. Throws InvariantError if the instance is infeasible, has a
/// negative weight, names an out-of-range element or has mismatched rows.
///
/// Each round takes the lexicographic minimum of (ratio, -fresh count, set
/// index) over the sets that still cover something, from a lazily re-keyed
/// heap. The counts are exact, not recounted: covering an element
/// decrements every set that holds it, via the instance's element rows. The
/// chosen sequence is bit-identical to the full recount-per-round rule.
SetCoverSolution greedy_weighted_set_cover(const SetCoverInstance& instance);

/// As above, solving into `ws.solution` (and `ws.cover_of`) and returning
/// it. The reference stays valid until the next solve with `ws`.
const SetCoverSolution& greedy_weighted_set_cover(
    const SetCoverInstance& instance, SetCoverWorkspace& ws);

/// Exact minimum-weight cover by branch-and-bound (branching on the
/// uncovered element with the fewest candidate sets). Returns nullopt if the
/// instance is infeasible. Intended for small instances (tests, ablations);
/// `max_elements` guards against accidental exponential blowups.
std::optional<SetCoverSolution> exact_set_cover(
    const SetCoverInstance& instance, std::size_t max_elements = 24);

}  // namespace eas::graph
