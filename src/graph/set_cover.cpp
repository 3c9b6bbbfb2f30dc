#include "graph/set_cover.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace eas::graph {

void SetCoverInstance::validate() const {
  for (std::size_t s = 0; s < sets.size(); ++s) {
    EAS_CHECK_MSG(sets[s].weight >= 0.0,
                  "set " << s << " has negative weight " << sets[s].weight);
    for (std::size_t e : sets[s].elements) {
      EAS_CHECK_MSG(e < num_elements,
                    "set " << s << " contains out-of-range element " << e);
    }
  }
}

bool SetCoverInstance::feasible() const {
  std::vector<bool> seen(num_elements, false);
  for (const auto& s : sets) {
    for (std::size_t e : s.elements) seen[e] = true;
  }
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

bool SetCoverSolution::covers(const SetCoverInstance& instance) const {
  std::vector<bool> covered(instance.num_elements, false);
  for (std::size_t s : chosen_sets) {
    if (s >= instance.sets.size()) return false;
    for (std::size_t e : instance.sets[s].elements) covered[e] = true;
  }
  return std::all_of(covered.begin(), covered.end(), [](bool b) { return b; });
}

void check_cover(const SetCoverSolution& sol,
                 const SetCoverInstance& instance) {
  std::vector<bool> covered(instance.num_elements, false);
  for (std::size_t s : sol.chosen_sets) {
    EAS_ENSURE_MSG(s < instance.sets.size(),
                   "cover references set " << s << " but instance has only "
                                           << instance.sets.size());
    for (std::size_t e : instance.sets[s].elements) covered[e] = true;
  }
  for (std::size_t e = 0; e < instance.num_elements; ++e) {
    EAS_ENSURE_MSG(covered[e], "cover leaves element "
                                   << e << " uncovered ("
                                   << sol.chosen_sets.size() << " sets chosen, "
                                   << instance.num_elements << " elements)");
  }
}

SetCoverSolution greedy_weighted_set_cover(const SetCoverInstance& instance) {
  SetCoverWorkspace ws;
  greedy_weighted_set_cover(instance, ws);
  return std::move(ws.solution);
}

const SetCoverSolution& greedy_weighted_set_cover(
    const SetCoverInstance& instance, SetCoverWorkspace& ws) {
  const std::size_t n = instance.num_elements;
  const std::size_t m = instance.sets.size();

  // One pass makes validate()'s checks, in its order, and counts each
  // element's occurrences into row[e + 2]; the prefix sum below turns the
  // counts into row starts shifted by one, which the fill pass then
  // advances into place (row[e] .. row[e + 1] is e's range afterwards).
  ws.row.assign(n + 2, 0);
  for (std::size_t s = 0; s < m; ++s) {
    const SetCoverInstance::Set& set = instance.sets[s];
    EAS_CHECK_MSG(set.weight >= 0.0,
                  "set " << s << " has negative weight " << set.weight);
    for (std::size_t e : set.elements) {
      EAS_CHECK_MSG(e < n, "set " << s << " contains out-of-range element "
                                  << e);
      ++ws.row[e + 2];
    }
  }
  for (std::size_t e = 0; e < n; ++e) {
    EAS_REQUIRE_MSG(ws.row[e + 2] > 0, "set cover instance is infeasible");
    ws.row[e + 2] += ws.row[e + 1];
  }
  ws.sets_of.resize(ws.row[n + 1]);
  ws.fresh.resize(m);
  ws.ratio.resize(m);
  ws.live.clear();
  for (std::size_t s = 0; s < m; ++s) {
    const SetCoverInstance::Set& set = instance.sets[s];
    for (std::size_t e : set.elements) ws.sets_of[ws.row[e + 1]++] = s;
    ws.fresh[s] = set.elements.size();
    if (ws.fresh[s] == 0) continue;  // covers nothing, never a candidate
    ws.ratio[s] = set.weight / static_cast<double>(ws.fresh[s]);
    ws.live.push_back(s);
  }

  ws.covered.assign(n, 0);
  std::size_t remaining = n;
  SetCoverSolution& sol = ws.solution;
  sol.chosen_sets.clear();
  sol.total_weight = 0.0;

  // The greedy order is the lexicographic minimum of (ratio, -fresh, set):
  // cheapest per fresh element first, ties toward larger coverage so free
  // sets don't dribble in one element at a time, then toward the lowest set
  // index — "first strictly better set wins" over the live list, which
  // stays in ascending index as the scan compacts out spent sets. `fresh`
  // counts occurrences, so a duplicate member counts twice, as a recount
  // would; `ratio` is recomputed from it with the same division.
  while (remaining > 0) {
    std::size_t best = m;
    double best_ratio = 0.0;
    std::size_t best_fresh = 0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < ws.live.size(); ++i) {
      const std::size_t s = ws.live[i];
      const std::size_t fresh = ws.fresh[s];
      if (fresh == 0) continue;
      ws.live[kept++] = s;
      const double ratio = ws.ratio[s];
      if (best == m || ratio < best_ratio ||
          (ratio == best_ratio && fresh > best_fresh)) {
        best = s;
        best_ratio = ratio;
        best_fresh = fresh;
      }
    }
    ws.live.resize(kept);
    EAS_CHECK_MSG(best < m, "greedy stalled with " << remaining
                                                   << " uncovered");
    sol.chosen_sets.push_back(best);
    sol.total_weight += instance.sets[best].weight;
    for (std::size_t e : instance.sets[best].elements) {
      if (ws.covered[e]) continue;
      ws.covered[e] = 1;
      --remaining;
      for (std::size_t k = ws.row[e]; k < ws.row[e + 1]; ++k) {
        const std::size_t s = ws.sets_of[k];
        if (--ws.fresh[s] > 0) {
          ws.ratio[s] =
              instance.sets[s].weight / static_cast<double>(ws.fresh[s]);
        }
      }
    }
  }
  if constexpr (audit_enabled()) check_cover(sol, instance);
  return sol;
}

namespace {

struct ExactState {
  const SetCoverInstance* instance;
  std::vector<std::vector<std::size_t>> sets_of_element;
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
    std::size_t pivot = instance->num_elements;
    std::size_t pivot_options = std::numeric_limits<std::size_t>::max();
    for (std::size_t e = 0; e < instance->num_elements; ++e) {
      if (covered[e]) continue;
      if (sets_of_element[e].size() < pivot_options) {
        pivot_options = sets_of_element[e].size();
        pivot = e;
      }
    }
    EAS_DCHECK(pivot < instance->num_elements);

    for (std::size_t s : sets_of_element[pivot]) {
      // Apply set s.
      std::vector<std::size_t> newly;
      for (std::size_t e : instance->sets[s].elements) {
        if (!covered[e]) {
          covered[e] = true;
          newly.push_back(e);
        }
      }
      remaining -= newly.size();
      current.push_back(s);
      current_weight += instance->sets[s].weight;

      search();

      current_weight -= instance->sets[s].weight;
      current.pop_back();
      remaining += newly.size();
      for (std::size_t e : newly) covered[e] = false;
    }
  }
};

}  // namespace

std::optional<SetCoverSolution> exact_set_cover(
    const SetCoverInstance& instance, std::size_t max_elements) {
  instance.validate();
  EAS_CHECK_MSG(instance.num_elements <= max_elements,
                "exact_set_cover instance too large ("
                    << instance.num_elements << " > " << max_elements << ")");
  if (!instance.feasible()) return std::nullopt;

  ExactState st;
  st.instance = &instance;
  st.covered.assign(instance.num_elements, false);
  st.remaining = instance.num_elements;
  st.sets_of_element.resize(instance.num_elements);
  {
    // Counting pass so each per-element list is allocated exactly once.
    std::vector<std::size_t> occurrences(instance.num_elements, 0);
    for (const auto& set : instance.sets) {
      for (std::size_t e : set.elements) ++occurrences[e];
    }
    for (std::size_t e = 0; e < instance.num_elements; ++e) {
      st.sets_of_element[e].reserve(occurrences[e]);
    }
  }
  for (std::size_t s = 0; s < instance.sets.size(); ++s) {
    for (std::size_t e : instance.sets[s].elements) {
      st.sets_of_element[e].push_back(s);
    }
  }
  st.search();

  SetCoverSolution sol;
  sol.chosen_sets = st.best;
  sol.total_weight = st.best_weight;
  if constexpr (audit_enabled()) check_cover(sol, instance);
  return sol;
}

}  // namespace eas::graph
