// Walkthrough of the paper's §2.3 / Fig 2-4 worked examples, computed by
// the library: the batch schedules A and B, the offline schedules B and C,
// the MWIS conflict graph, and the exact and greedy MWIS solutions.
//
//   $ ./paper_walkthrough
#include <iostream>
#include <vector>

#include "core/conflict_graph.hpp"
#include "core/mwis_scheduler.hpp"
#include "core/offline_eval.hpp"
#include "disk/params.hpp"
#include "graph/mwis.hpp"
#include "placement/placement.hpp"
#include "runner/emit.hpp"
#include "trace/trace.hpp"

using namespace eas;

namespace {

placement::PlacementMap example_placement() {
  std::vector<std::vector<DiskId>> locs = {
      {0}, {0, 1}, {0, 1, 3}, {2, 3}, {0, 3}, {2, 3}};
  return placement::PlacementMap(4, std::move(locs));
}

trace::Trace trace_at(const std::vector<double>& times) {
  std::vector<trace::TraceRecord> recs;
  for (DataId b = 0; b < times.size(); ++b) {
    recs.push_back({times[b], b, 512 * 1024, true});
  }
  return trace::Trace(std::move(recs));
}

core::OfflineAssignment schedule(std::vector<DiskId> disks) {
  core::OfflineAssignment a;
  a.disk_of_request = std::move(disks);
  return a;
}

void show(const char* label, const trace::Trace& t,
          const core::OfflineAssignment& a,
          const disk::DiskPowerParams& p) {
  const auto report = core::evaluate_offline(t, a, 4, p);
  std::cout << "  " << label << ": total energy = " << report.total_energy()
            << " J (";
  for (DiskId k = 0; k < 4; ++k) {
    if (report.disk_stats[k].total_joules() > 0) {
      std::cout << " d" << k + 1 << "=" << report.disk_stats[k].total_joules();
    }
  }
  std::cout << " )\n";
}

}  // namespace

int main() {
  const auto p = disk::example_power_params();  // 1 W idle, T_B = 5 s
  const auto placement = example_placement();

  std::cout << "Power model: idle 1 W, no spin cost, breakeven T_B = 5 s\n"
            << "Placement: d1{b1,b2,b3,b5} d2{b2,b3} d3{b4,b6} d4{b3,b4,b5,b6}\n\n";

  std::cout << "== Fig 2: batch example (all requests at t=0) ==\n";
  const auto batch = trace_at({0, 0, 0, 0, 0, 0});
  show("schedule A (r1,r5->d1; r2,r3->d2; r4,r6->d3)", batch,
       schedule({0, 1, 1, 2, 0, 2}), p);
  show("schedule B (r1,r2,r3,r5->d1; r4,r6->d3)    ", batch,
       schedule({0, 0, 0, 2, 0, 2}), p);
  std::cout << "  always-on over the same horizon: 20 J\n\n";

  std::cout << "== Fig 3: offline example (arrivals 0,1,3,5,12,13) ==\n";
  const auto offline = trace_at({0, 1, 3, 5, 12, 13});
  show("schedule B", offline, schedule({0, 0, 0, 2, 0, 2}), p);
  show("schedule C (r1..r3->d1; r4->d3; r5,r6->d4) ", offline,
       schedule({0, 0, 0, 2, 3, 3}), p);
  std::cout << '\n';

  std::cout << "== Fig 4: MWIS pipeline on the offline example ==\n";
  core::ConflictGraphOptions gopts;
  gopts.successor_horizon = 2;
  const auto graph = core::build_conflict_graph(offline, placement, p, gopts);
  runner::ResultTable t("", {"node", "X(i,j,k)", "weight (J)"});
  for (std::uint32_t v = 0; v < graph.size(); ++v) {
    const core::SavingNode n = graph.node(v);
    t.row()
        .cell(std::string())
        .cell("X(" + std::to_string(n.i + 1) + "," + std::to_string(n.j + 1) +
              "," + std::to_string(n.k + 1) + ")")
        .cell(n.weight, 0);
  }
  t.emit_table(std::cout);
  std::cout << "conflict edges: " << graph.num_edges() << "\n";

  const auto exact = graph::exact_mwis(graph.to_weighted_graph());
  std::cout << "exact MWIS total saving: " << exact.total_weight
            << " J  (ceiling 30 J - optimal 19 J = 11 J)\n";

  core::MwisOptions mopts;
  mopts.algorithm = core::MwisOptions::Algorithm::kExact;
  mopts.graph = gopts;
  core::MwisOfflineScheduler sched(mopts);
  const auto assignment = sched.schedule(offline, placement, p);
  std::cout << "derived schedule:";
  for (std::size_t r = 0; r < assignment.disk_of_request.size(); ++r) {
    std::cout << " r" << r + 1 << "->d" << assignment.disk_of_request[r] + 1;
  }
  std::cout << '\n';
  show("MWIS schedule", offline, assignment, p);
  return 0;
}
