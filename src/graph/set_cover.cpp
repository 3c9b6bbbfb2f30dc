#include "graph/set_cover.hpp"

#include <algorithm>
#include <limits>

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
  return greedy_weighted_set_cover(instance, ws);
}

SetCoverSolution greedy_weighted_set_cover(const SetCoverInstance& instance,
                                           SetCoverWorkspace& ws) {
  instance.validate();
  EAS_REQUIRE_MSG(instance.feasible(), "set cover instance is infeasible");

  ws.covered.assign(instance.num_elements, 0);
  std::size_t remaining = instance.num_elements;
  SetCoverSolution sol;

  // The greedy order is the lexicographic minimum of (ratio, -fresh, set):
  // cheapest per fresh element first, ties toward larger coverage so free
  // sets don't dribble in one element at a time, then toward the lowest set
  // index. The comparator inverts that ("worse sorts first") because the
  // std heap algorithms keep the comparator's maximum at the front.
  using Candidate = SetCoverWorkspace::Candidate;
  const auto later = [](const Candidate& a, const Candidate& b) {
    if (a.ratio != b.ratio) return a.ratio > b.ratio;
    if (a.fresh != b.fresh) return a.fresh < b.fresh;
    return a.set > b.set;
  };
  const auto recount = [&](std::size_t s) {
    std::size_t n = 0;
    for (std::size_t e : instance.sets[s].elements) {
      if (!ws.covered[e]) ++n;
    }
    return n;
  };

  ws.heap.clear();
  for (std::size_t s = 0; s < instance.sets.size(); ++s) {
    const std::size_t n = instance.sets[s].elements.size();
    if (n == 0) continue;
    ws.heap.push_back(
        {instance.sets[s].weight / static_cast<double>(n), n, s});
  }
  std::make_heap(ws.heap.begin(), ws.heap.end(), later);

  // Lazy selection: a set's key only ever increases as elements get covered
  // (the ratio grows when weight > 0; the -fresh tie-break grows when
  // weight == 0), so a popped entry whose cached count is stale is pushed
  // back with its true key, and a popped entry whose count is exact is the
  // global minimum — every other set's true key is >= its stored key >= this
  // key. Each set has at most one live entry, so the heap never exceeds the
  // set count. The selected sequence is identical to a per-round linear
  // scan, just without the O(sets) rescan per selection.
  while (remaining > 0) {
    EAS_CHECK_MSG(!ws.heap.empty(),
                  "greedy stalled with " << remaining << " uncovered");
    std::pop_heap(ws.heap.begin(), ws.heap.end(), later);
    const Candidate top = ws.heap.back();
    ws.heap.pop_back();
    const std::size_t n = recount(top.set);
    if (n == 0) continue;  // fully covered by earlier picks; never useful
    if (n != top.fresh) {
      ws.heap.push_back(
          {instance.sets[top.set].weight / static_cast<double>(n), n,
           top.set});
      std::push_heap(ws.heap.begin(), ws.heap.end(), later);
      continue;
    }
    sol.chosen_sets.push_back(top.set);
    sol.total_weight += instance.sets[top.set].weight;
    for (std::size_t e : instance.sets[top.set].elements) {
      if (!ws.covered[e]) {
        ws.covered[e] = 1;
        --remaining;
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
