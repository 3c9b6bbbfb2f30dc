#include "runner/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>

#include "util/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace eas::runner {

namespace {

long peak_rss_kib_now() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return ru.ru_maxrss / 1024;  // bytes on macOS
#else
    return ru.ru_maxrss;  // KiB on Linux
#endif
  }
#endif
  return 0;
}

using TraceKey = std::tuple<Workload, std::uint64_t, std::size_t>;
using PlacementKey = std::tuple<DiskId, unsigned, double, std::uint64_t>;

TraceKey trace_key(const ExperimentParams& p) {
  return {p.workload, p.trace_seed, p.num_requests};
}

PlacementKey placement_key(const ExperimentParams& p) {
  return {p.num_disks, p.replication_factor, p.zipf_z, p.placement_seed};
}

/// Serial prefill of the immutable shared inputs: every distinct
/// (workload, seed, n) trace and (disks, rf, z, seed) placement is built
/// exactly once and shared by reference across all cells that use it.
void attach_shared_inputs(std::vector<CellSpec>& cells) {
  std::map<TraceKey, std::shared_ptr<const trace::Trace>> traces;
  std::map<PlacementKey, std::shared_ptr<const placement::PlacementMap>>
      placements;
  for (auto& cell : cells) {
    if (!cell.trace) {
      auto& slot = traces[trace_key(cell.params)];
      if (!slot) slot = make_shared_workload(cell.params);
      cell.trace = slot;
    }
    if (!cell.placement) {
      auto& slot = placements[placement_key(cell.params)];
      if (!slot) slot = make_shared_placement(cell.params);
      cell.placement = slot;
    }
  }
}

// --- cell-isolation audit ---------------------------------------------------
// The determinism contract says cells share only *immutable* inputs. Under
// the audit tier every distinct shared trace/placement is fingerprinted
// before the workers start and re-checked after they join: any drift means a
// cell mutated shared state, i.e. results depend on thread interleaving.

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t double_bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::uint64_t fingerprint(const trace::Trace& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& r : t.records()) {
    h = fnv1a_mix(h, double_bits(r.time));
    h = fnv1a_mix(h, (static_cast<std::uint64_t>(r.data) << 1) |
                         static_cast<std::uint64_t>(r.is_read));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(r.size_bytes));
  }
  return h;
}

std::uint64_t fingerprint(const placement::PlacementMap& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a_mix(h, p.num_disks());
  for (DataId b = 0; b < p.num_data(); ++b) {
    for (DiskId k : p.locations(b)) h = fnv1a_mix(h, k);
  }
  return h;
}

/// Snapshot of every distinct shared input's fingerprint, keyed by address.
std::map<const void*, std::uint64_t> input_fingerprints(
    const std::vector<CellSpec>& cells) {
  std::map<const void*, std::uint64_t> fp;
  for (const auto& cell : cells) {
    if (cell.trace && !fp.contains(cell.trace.get())) {
      fp[cell.trace.get()] = fingerprint(*cell.trace);
    }
    if (cell.placement && !fp.contains(cell.placement.get())) {
      fp[cell.placement.get()] = fingerprint(*cell.placement);
    }
  }
  return fp;
}

}  // namespace

SweepRunner::SweepRunner(SweepOptions opts)
    : SweepRunner(SchedulerRegistry::global(), opts) {}

SweepRunner::SweepRunner(const SchedulerRegistry& registry, SweepOptions opts)
    : registry_(registry),
      opts_(opts),
      threads_(opts.threads > 0 ? opts.threads : threads_from_env()) {}

std::vector<CellResult> SweepRunner::run(std::vector<CellSpec> cells) {
  const auto sweep_start = std::chrono::steady_clock::now();

  // Validate the whole grid and resolve registry names before spawning
  // anything: a misdeclared grid should fail fast, not mid-sweep.
  std::vector<const SchedulerSpec*> specs;
  specs.reserve(cells.size());
  for (const auto& cell : cells) {
    cell.params.validate();
    specs.push_back(&registry_.at(cell.scheduler));
  }
  attach_shared_inputs(cells);

  std::map<const void*, std::uint64_t> pre_fingerprints;
  if constexpr (audit_enabled()) {
    pre_fingerprints = input_fingerprints(cells);
  }

  std::vector<CellResult> results(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    results[i].index = i;
    results[i].spec = cells[i];
    results[i].status = CellStatus::kSkipped;
  }
  if (cells.empty()) return results;

  const std::size_t num_workers = std::max<std::size_t>(
      1, std::min(threads_, cells.size()));
  // One shared cursor: each free worker claims the next unstarted cell.
  // Results land in slot i whoever runs cell i, so the output never depends
  // on which worker that was.
  std::atomic<std::size_t> next_cell{0};
  std::atomic<bool> cancelled{false};
  std::mutex failure_mutex;
  std::exception_ptr first_failure;

  auto worker = [&] {
    while (!cancelled.load(std::memory_order_acquire)) {
      // Cells never claimed keep their kSkipped status.
      const std::size_t i = next_cell.fetch_add(1);
      if (i >= cells.size()) break;
      CellResult& out = results[i];
      const CellSpec& cell = cells[i];
      const auto cell_start = std::chrono::steady_clock::now();
      try {
        storage::RunResult r =
            run_cell(*specs[i], cell.params, *cell.trace, *cell.placement);
        // Sort the SampleStore's buffer in place while the result is still
        // thread-confined, so later concurrent readers of the (logically
        // const) result only read it.
        if (!r.response_times.empty()) r.response_times.sorted();
        out.result = std::move(r);
        out.status = CellStatus::kOk;
      } catch (...) {
        out.status = CellStatus::kFailed;
        try {
          std::rethrow_exception(std::current_exception());
        } catch (const std::exception& e) {
          out.error = e.what();
        } catch (...) {
          out.error = "unknown error";
        }
        {
          std::lock_guard lock(failure_mutex);
          if (!first_failure) first_failure = std::current_exception();
        }
        if (opts_.cancel_on_failure) {
          cancelled.store(true, std::memory_order_release);
        }
      }
      out.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        cell_start)
              .count();
      out.peak_rss_kib = peak_rss_kib_now();
    }
  };

  if (num_workers == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(num_workers);
    for (std::size_t t = 0; t < num_workers; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  if constexpr (audit_enabled()) {
    const auto post = input_fingerprints(cells);
    for (const auto& [ptr, fp] : pre_fingerprints) {
      const auto it = post.find(ptr);
      EAS_CHECK_MSG(it != post.end() && it->second == fp,
                    "cell isolation violated: a shared immutable input "
                    "(trace/placement) changed during the sweep");
    }
    // Every result slot must belong to its own cell: slot i holds index i and
    // a definite status (no torn/unwritten entries after the join).
    for (std::size_t i = 0; i < results.size(); ++i) {
      EAS_CHECK_MSG(results[i].index == i,
                    "result slot " << i << " carries index "
                                   << results[i].index);
    }
  }

  if (opts_.progress != nullptr) {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();
    std::size_t ok = 0;
    for (const auto& r : results) ok += r.status == CellStatus::kOk;
    *opts_.progress << "# sweep: " << ok << "/" << results.size()
                    << " cells ok, " << num_workers << " thread"
                    << (num_workers == 1 ? "" : "s") << ", " << wall
                    << " s wall, peak rss " << peak_rss_kib_now() << " KiB\n";
  }

  if (opts_.rethrow_failure && first_failure) {
    std::rethrow_exception(first_failure);
  }
  return results;
}

std::vector<CellSpec> product_grid(
    const ExperimentParams& base, const std::vector<std::string>& schedulers,
    const std::vector<std::string>& axis,
    const std::function<ExperimentParams(const ExperimentParams& base,
                                         const std::string& tag)>& configure) {
  std::vector<CellSpec> cells;
  cells.reserve(schedulers.size() * axis.size());
  for (const auto& tag : axis) {
    ExperimentParams p = configure ? configure(base, tag) : base;
    p.validate();
    for (const auto& name : schedulers) {
      CellSpec cell;
      cell.scheduler = name;
      cell.params = p;
      cell.tag = tag;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

const CellResult& find_cell(const std::vector<CellResult>& results,
                            std::string_view tag, std::string_view scheduler) {
  for (const auto& r : results) {
    if (r.spec.tag == tag && r.spec.scheduler == scheduler) return r;
  }
  EAS_CHECK_MSG(false,
                "no sweep cell with tag '" << tag << "' and scheduler '"
                                           << scheduler << "'");
  std::abort();  // unreachable: EAS_CHECK_MSG throws
}

}  // namespace eas::runner
