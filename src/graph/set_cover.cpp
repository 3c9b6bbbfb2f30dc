#include "graph/set_cover.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace eas::graph {

void SetCoverInstance::validate() const {
  EAS_CHECK_MSG(weights.size() == num_sets(),
                weights.size() << " weights for " << num_sets() << " sets");
  const std::size_t n = num_elements();
  for (std::size_t s = 0; s < num_sets(); ++s) {
    EAS_CHECK_MSG(weights[s] >= 0.0,
                  "set " << s << " has negative weight " << weights[s]);
    for (std::uint32_t e : elements(s)) {
      EAS_CHECK_MSG(e < n,
                    "set " << s << " contains out-of-range element " << e);
    }
  }
  // With every member in range, the two directions must list the same
  // memberships.
  EAS_CHECK_MSG(element_sets.size() == set_elements.size(),
                "set rows hold " << set_elements.size()
                                 << " memberships, element rows "
                                 << element_sets.size());
  for (std::size_t e = 0; e < n; ++e) {
    for (std::uint32_t s : sets_of(e)) {
      EAS_CHECK_MSG(s < num_sets(),
                    "element " << e << " lists out-of-range set " << s);
    }
  }
}

bool SetCoverInstance::feasible() const {
  for (std::size_t e = 0; e < num_elements(); ++e) {
    if (sets_of(e).empty()) return false;
  }
  return true;
}

void transpose_rows(std::span<const std::uint32_t> start,
                    std::span<const std::uint32_t> cols, std::size_t num_cols,
                    std::vector<std::uint32_t>& out_start,
                    std::vector<std::uint32_t>& out_rows) {
  // Count each column's entries into out_start[c + 2]; the prefix sum turns
  // the counts into row starts shifted by one, which the fill pass then
  // advances into place (out_start[c] .. out_start[c + 1] afterwards).
  out_start.assign(num_cols + 2, 0);
  for (std::uint32_t c : cols) {
    if (c < num_cols) ++out_start[c + 2];
  }
  for (std::size_t c = 0; c < num_cols; ++c) {
    out_start[c + 2] += out_start[c + 1];
  }
  out_rows.resize(out_start[num_cols + 1]);
  for (std::size_t r = 0; r + 1 < start.size(); ++r) {
    for (std::uint32_t k = start[r]; k < start[r + 1]; ++k) {
      const std::uint32_t c = cols[k];
      if (c < num_cols) {
        out_rows[out_start[c + 1]++] = static_cast<std::uint32_t>(r);
      }
    }
  }
  out_start.pop_back();
}

SetCoverInstance make_set_cover(std::size_t num_elements,
                                const std::vector<SetSpec>& sets) {
  SetCoverInstance instance;
  for (const SetSpec& set : sets) {
    instance.weights.push_back(set.weight);
    instance.set_elements.insert(instance.set_elements.end(),
                                 set.elements.begin(), set.elements.end());
    instance.set_start.push_back(
        static_cast<std::uint32_t>(instance.set_elements.size()));
  }
  transpose_rows(instance.set_start, instance.set_elements, num_elements,
                 instance.element_start, instance.element_sets);
  return instance;
}

bool SetCoverSolution::covers(const SetCoverInstance& instance) const {
  std::vector<bool> covered(instance.num_elements(), false);
  for (std::size_t s : chosen_sets) {
    if (s >= instance.num_sets()) return false;
    for (std::uint32_t e : instance.elements(s)) covered[e] = true;
  }
  return std::all_of(covered.begin(), covered.end(), [](bool b) { return b; });
}

void check_cover(const SetCoverSolution& sol,
                 const SetCoverInstance& instance) {
  std::vector<bool> covered(instance.num_elements(), false);
  for (std::size_t s : sol.chosen_sets) {
    EAS_ENSURE_MSG(s < instance.num_sets(),
                   "cover references set " << s << " but instance has only "
                                           << instance.num_sets());
    for (std::uint32_t e : instance.elements(s)) covered[e] = true;
  }
  for (std::size_t e = 0; e < instance.num_elements(); ++e) {
    EAS_ENSURE_MSG(covered[e], "cover leaves element "
                                   << e << " uncovered ("
                                   << sol.chosen_sets.size() << " sets chosen, "
                                   << instance.num_elements() << " elements)");
  }
}

namespace {

using Candidate = SetCoverWorkspace::Candidate;

/// The key of `set` with `fresh` uncovered occurrences. Adding +0.0 turns
/// a -0.0 ratio into +0.0, which it equals as a double.
Candidate key(double weight, std::uint32_t fresh, std::uint32_t set) {
  const double ratio = weight / static_cast<double>(fresh) + 0.0;
  return {std::bit_cast<std::uint64_t>(ratio),
          std::uint64_t{~fresh} << 32 | set};
}
std::uint32_t fresh_of(const Candidate& c) {
  return ~static_cast<std::uint32_t>(c.rank >> 32);
}
std::uint32_t set_of(const Candidate& c) {
  return static_cast<std::uint32_t>(c.rank);
}

/// True when `a` comes after `b` in the greedy order: a higher ratio, or an
/// equal ratio with fewer fresh elements, or both equal and a higher index.
/// Written without short-circuits: heap comparisons are data-dependent, so
/// a branch here would mispredict about half the time.
bool after(const Candidate& a, const Candidate& b) {
  return (a.ratio_bits > b.ratio_bits) |
         ((a.ratio_bits == b.ratio_bits) & (a.rank > b.rank));
}

/// Restores the min-heap order below position i.
void sift_down(std::vector<Candidate>& heap, std::size_t i) {
  const std::size_t n = heap.size();
  const Candidate moving = heap[i];
  for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n) {
      child += static_cast<std::size_t>(after(heap[child], heap[child + 1]));
    }
    if (!after(moving, heap[child])) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = moving;
}

}  // namespace

SetCoverSolution greedy_weighted_set_cover(const SetCoverInstance& instance) {
  SetCoverWorkspace ws;
  greedy_weighted_set_cover(instance, ws);
  return std::move(ws.solution);
}

const SetCoverSolution& greedy_weighted_set_cover(
    const SetCoverInstance& instance, SetCoverWorkspace& ws) {
  const std::size_t n = instance.num_elements();
  const std::size_t m = instance.num_sets();
  EAS_CHECK_MSG(instance.weights.size() == m,
                instance.weights.size() << " weights for " << m << " sets");

  // One pass makes validate()'s checks, in its order, and seeds each set's
  // fresh count (its occurrences) and key; sets that cover nothing are
  // never candidates.
  ws.fresh.resize(m);
  ws.heap.clear();
  for (std::size_t s = 0; s < m; ++s) {
    const double weight = instance.weights[s];
    EAS_CHECK_MSG(weight >= 0.0,
                  "set " << s << " has negative weight " << weight);
    const std::span<const std::uint32_t> members = instance.elements(s);
    for (std::uint32_t e : members) {
      EAS_CHECK_MSG(e < n, "set " << s << " contains out-of-range element "
                                  << e);
    }
    const auto fresh = static_cast<std::uint32_t>(members.size());
    ws.fresh[s] = fresh;
    if (fresh == 0) continue;
    ws.heap.push_back(key(weight, fresh, static_cast<std::uint32_t>(s)));
  }
  EAS_CHECK_MSG(instance.element_sets.size() == instance.set_elements.size(),
                "set rows hold " << instance.set_elements.size()
                                 << " memberships, element rows "
                                 << instance.element_sets.size());
  for (std::size_t e = 0; e < n; ++e) {
    const std::span<const std::uint32_t> sets = instance.sets_of(e);
    EAS_REQUIRE_MSG(!sets.empty(), "set cover instance is infeasible");
    for (std::uint32_t s : sets) {
      EAS_CHECK_MSG(s < m, "element " << e << " lists out-of-range set " << s);
    }
  }
  for (std::size_t i = ws.heap.size() / 2; i-- > 0;) sift_down(ws.heap, i);

  ws.cover_of.assign(n, SetCoverWorkspace::kUncovered);
  std::size_t remaining = n;
  SetCoverSolution& sol = ws.solution;
  sol.chosen_sets.clear();
  sol.total_weight = 0.0;

  // The greedy order is the lexicographic minimum of (ratio, -fresh, set):
  // cheapest per fresh element first, ties toward larger coverage so free
  // sets don't dribble in one element at a time, then toward the lowest set
  // index. `fresh` counts occurrences, so a duplicate member counts twice,
  // as a recount would, and a re-keyed ratio is the same division a
  // recount makes. A key only worsens as its count drops (a larger ratio,
  // or at ratio 0 fewer fresh elements), so every heap entry bounds its
  // set's current key from below: the top entry, once current, is the
  // minimum over all sets still covering something.
  while (remaining > 0) {
    EAS_CHECK_MSG(!ws.heap.empty(),
                  "greedy stalled with " << remaining << " uncovered");
    Candidate& top = ws.heap.front();
    const std::uint32_t set = set_of(top);
    const std::uint32_t fresh = ws.fresh[set];
    if (fresh != fresh_of(top)) {
      if (fresh == 0) {  // spent: drop it
        top = ws.heap.back();
        ws.heap.pop_back();
      } else {  // stale: re-key it
        top = key(instance.weights[set], fresh, set);
      }
      if (!ws.heap.empty()) sift_down(ws.heap, 0);
      continue;
    }
    const std::uint32_t best = set;
    top = ws.heap.back();
    ws.heap.pop_back();
    if (!ws.heap.empty()) sift_down(ws.heap, 0);

    sol.chosen_sets.push_back(best);
    sol.total_weight += instance.weights[best];
    for (std::uint32_t e : instance.elements(best)) {
      if (ws.cover_of[e] != SetCoverWorkspace::kUncovered) continue;
      ws.cover_of[e] = best;
      --remaining;
      for (std::uint32_t s : instance.sets_of(e)) {
        EAS_DCHECK(ws.fresh[s] > 0);
        --ws.fresh[s];
      }
    }
  }
  if constexpr (audit_enabled()) check_cover(sol, instance);
  return sol;
}

namespace {

struct ExactState {
  const SetCoverInstance* instance;
  std::vector<bool> covered;
  std::size_t remaining = 0;
  std::vector<std::size_t> current;
  double current_weight = 0.0;
  double best_weight = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best;

  void search() {
    if (remaining == 0) {
      if (current_weight < best_weight) {
        best_weight = current_weight;
        best = current;
      }
      return;
    }
    if (current_weight >= best_weight) return;  // bound

    // Branch on the uncovered element with the fewest candidate sets.
    const std::size_t n = instance->num_elements();
    std::size_t pivot = n;
    std::size_t pivot_options = std::numeric_limits<std::size_t>::max();
    for (std::size_t e = 0; e < n; ++e) {
      if (covered[e]) continue;
      if (instance->sets_of(e).size() < pivot_options) {
        pivot_options = instance->sets_of(e).size();
        pivot = e;
      }
    }
    EAS_DCHECK(pivot < n);

    for (std::uint32_t s : instance->sets_of(pivot)) {
      // Apply set s.
      std::vector<std::uint32_t> newly;
      for (std::uint32_t e : instance->elements(s)) {
        if (!covered[e]) {
          covered[e] = true;
          newly.push_back(e);
        }
      }
      remaining -= newly.size();
      current.push_back(s);
      current_weight += instance->weights[s];

      search();

      current_weight -= instance->weights[s];
      current.pop_back();
      remaining += newly.size();
      for (std::uint32_t e : newly) covered[e] = false;
    }
  }
};

}  // namespace

std::optional<SetCoverSolution> exact_set_cover(
    const SetCoverInstance& instance, std::size_t max_elements) {
  instance.validate();
  EAS_CHECK_MSG(instance.num_elements() <= max_elements,
                "exact_set_cover instance too large ("
                    << instance.num_elements() << " > " << max_elements
                    << ")");
  if (!instance.feasible()) return std::nullopt;

  ExactState st;
  st.instance = &instance;
  st.covered.assign(instance.num_elements(), false);
  st.remaining = instance.num_elements();
  st.search();

  SetCoverSolution sol;
  sol.chosen_sets = st.best;
  sol.total_weight = st.best_weight;
  if constexpr (audit_enabled()) check_cover(sol, instance);
  return sol;
}

}  // namespace eas::graph
