// Executable specifications of the library's optimised solvers.
//
// Each function here is the straightforward original implementation of an
// algorithm the library ships in a faster form (GWMIN/GWMIN2 over an
// explicit graph excepted: the library's GWMIN is the conflict-graph
// solve). They live in tests/ only: the differential suites
// (test_graph_diff, test_refine_diff) run both forms on seeded instances
// and require identical results, bit for bit, because the sweep
// fingerprints and goldens pin the historical outputs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/conflict_graph.hpp"
#include "core/refine.hpp"
#include "core/scheduler.hpp"
#include "disk/params.hpp"
#include "graph/mwis.hpp"
#include "graph/set_cover.hpp"
#include "placement/placement.hpp"
#include "trace/trace.hpp"

namespace eas::graph {

/// GWMIN by full linear rescan per selection, O(n·k): first strictly-better
/// score wins, so equal scores keep the lowest vertex index. The library's
/// only GWMIN is the conflict-graph solve (replicated in test_graph_diff);
/// these two serve as feasible comparands for exact_mwis.
MwisSolution gwmin_reference(const WeightedGraph& g);

/// GWMIN2 by full linear rescan, same tie-break as gwmin_reference.
MwisSolution gwmin2_reference(const WeightedGraph& g);

/// Greedy weighted set cover by per-round linear scan: min (ratio, -fresh,
/// set index) each round. O(rounds · sets · set size).
SetCoverSolution greedy_weighted_set_cover_reference(
    const SetCoverInstance& instance);

}  // namespace eas::graph

namespace eas::core {

/// The §3.1.2 nodes X(i,j,k) with their weights, enumerated request by
/// request without per-disk lists: for each request i and each disk k
/// storing it, the first `successor_horizon` later requests stored on k
/// inside the saving window, kept when their saving is positive. Returned
/// in build_conflict_graph's node-id order (disk, then i, then j).
std::vector<SavingNode> enumerate_saving_nodes_reference(
    const trace::Trace& trace, const placement::PlacementMap& placement,
    const disk::DiskPowerParams& power, const ConflictGraphOptions& options);

/// The conflict graph's explicit adjacency over `nodes` (trace indices
/// below `num_requests`), built the way core::ConflictGraph stored it
/// before its edges became implicit: nodes bucketed per request in node-id
/// order, every conflicting pair found once by a pairwise scan of each
/// bucket, and the CSR rows filled in two passes (count, then place).
graph::WeightedGraph build_conflict_csr_reference(
    std::span<const SavingNode> nodes, std::size_t num_requests);

/// refine_offline_assignment over one std::set<(time, request)> per disk,
/// every request evaluated on every pass.
RefineStats refine_offline_assignment_reference(
    OfflineAssignment& assignment, const trace::Trace& trace,
    const placement::PlacementMap& placement,
    const disk::DiskPowerParams& power, std::size_t max_passes = 3);

}  // namespace eas::core
