// bench_e2e: the end-to-end benchmark of the simulator.
//
// One process runs one workload (or, for smoke runs, all of them in turn).
// A rep is set-up (trace generation and placement) followed by a cell:
// runner::run_cell plus RunResult::to_json(true), which also sorts the
// response samples. After one untimed warm-up rep the process repeats
// untraced reps until --seconds have passed (at least kMinReps) and reports
// medians over them. With --trace 1 one traced rep follows, whose timing
// decorators around the scheduler and power policy give the per-layer split.
//
// A shared host's speed drifts by tens of percent over minutes, so every rep
// also times a fixed reference kernel, and each host time is reported at the
// speed of a nominal host on which that kernel takes kReferenceSeconds.
//
// Every rep is checked: request accounting, per-disk state time against the
// horizon, one fingerprint across all reps, and at seed 1 the golden
// fingerprints in expected.json. Usage is in README.md.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "layers.hpp"
#include "runner/experiment.hpp"
#include "runner/registry.hpp"
#include "trace/synthetic.hpp"
#include "util/json.hpp"

namespace {

using namespace eas;
using bench::Clock;

struct WorkloadDef {
  const char* name;
  const char* scheduler;  ///< paper-roster row
  runner::Workload trace;
  std::size_t requests;
  double write_fraction;
  bool tiers;  ///< cache + reliability + a repaired disk failure
};

// README.md gives the reason for each workload.
constexpr WorkloadDef kWorkloads[] = {
    {"online-cello-1m", "heuristic", runner::Workload::kCello, 1'000'000, 0.0,
     false},
    {"batch-wsc-cello-1m", "wsc", runner::Workload::kCello, 1'000'000, 0.0,
     false},
    {"offline-mwis-cello-100k", "mwis", runner::Workload::kCello, 100'000, 0.0,
     false},
    {"tiers-financial-1m", "heuristic", runner::Workload::kFinancial,
     1'000'000, 0.3, true},
};

/// Timed reps per run, however short --seconds is.
constexpr std::size_t kMinReps = 3;

/// Host times are reported as measured × kReferenceSeconds / the reference
/// kernel's time beside them: seconds on a host where the kernel takes
/// 180 ms, as it does on the 4-vCPU Xeon VM the baseline was recorded on.
constexpr double kReferenceSeconds = 0.18;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = true;
  std::size_t requests = 0;  ///< 0 = the workload's own size
  std::string expected;      ///< golden fingerprints (checked at seed 1)
  std::string out;           ///< JSONL file each workload's record joins
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

long peak_rss_kib() {
  struct rusage ru {};
  return getrusage(RUSAGE_SELF, &ru) == 0 ? ru.ru_maxrss : 0;
}

/// Mean cost of one steady_clock read. A timed call's interval holds about
/// one read besides the call, so this is subtracted from per-call times.
double clock_read_ns() {
  constexpr int kReads = 200'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kReads; ++i) (void)Clock::now();
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         kReads;
}

/// Fixed host-speed probe: heap-sorts 1M pseudo-random doubles in a buffer
/// kept for the whole process. Like the simulator it mixes compute with
/// out-of-cache memory traffic, so its time tracks how fast the shared host
/// runs at the moment.
class Reference {
 public:
  double run_s() {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto t0 = Clock::now();
    for (double& d : buf_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      d = static_cast<double>(x >> 11);
    }
    std::make_heap(buf_.begin(), buf_.end());
    for (auto end = buf_.end(); end != buf_.begin(); --end) {
      std::pop_heap(buf_.begin(), end);
    }
    const auto t1 = Clock::now();
    if (!std::is_sorted(buf_.begin(), buf_.end())) {
      throw std::logic_error("reference kernel left its buffer unsorted");
    }
    return seconds_between(t0, t1);
  }

 private:
  std::vector<double> buf_ = std::vector<double>(std::size_t{1} << 20);
};

runner::ExperimentParams params_for(const WorkloadDef& w, std::uint64_t seed,
                                    std::size_t requests) {
  runner::ExperimentBuilder b(w.trace);
  b.requests(requests)
      .disks(180)
      .replication(3)
      .zipf_z(1.0)
      .trace_seed(seed)
      .placement_seed(41 + seed);  // seed 1 keeps the paper's placement
  if (w.tiers) {
    cache::CacheConfig cc;
    cc.policy = cache::CachePolicy::kLru;
    cc.capacity_blocks = 1024;
    cc.dirty_capacity_blocks = 256;
    reliability::ReliabilityConfig rc;
    rc.deadline_seconds = 5.0;
    rc.max_attempts = 3;
    rc.hedge_delay_seconds = 0.5;
    rc.max_queue_depth = 16;
    b.cache(cc).reliability(rc).fail_disk_at(7, 2000.0, 3000.0);
  }
  return b.build();
}

trace::Trace make_trace(const WorkloadDef& w,
                        const runner::ExperimentParams& p) {
  trace::SyntheticTraceConfig cfg =
      w.trace == runner::Workload::kCello
          ? trace::cello_like_config(p.trace_seed)
          : trace::financial_like_config(p.trace_seed);
  cfg.num_requests = p.num_requests;
  cfg.write_fraction = w.write_fraction;
  return trace::make_synthetic_trace(cfg);
}

/// FNV-1a over the result JSON and the bits of the sorted response samples.
std::uint64_t fingerprint(const std::string& json,
                          const std::vector<double>& sorted) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const unsigned char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  mix(reinterpret_cast<const unsigned char*>(json.data()), json.size());
  for (const double x : sorted) {
    unsigned char bytes[sizeof x];
    std::memcpy(bytes, &x, sizeof x);
    mix(bytes, sizeof x);
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << v;
  return os.str();
}

/// Empty when the run's invariants hold, else what broke.
std::string check_result(const storage::RunResult& r, std::uint64_t n) {
  const std::uint64_t accounted =
      r.total_requests + r.reliability_stats.shed +
      r.reliability_stats.abandoned + r.fault_stats.unavailable_requests;
  if (accounted != n) {
    return "completed+shed+abandoned+unavailable = " +
           std::to_string(accounted) + ", expected " + std::to_string(n);
  }
  for (std::size_t k = 0; k < r.disk_stats.size(); ++k) {
    const double gap = std::abs(r.disk_stats[k].total_seconds() - r.horizon);
    if (!(gap <= 1e-9 * r.horizon)) {
      return "disk " + std::to_string(k) + " state seconds miss the horizon by " +
             util::json_number(gap);
    }
  }
  return {};
}

/// Simulated outcomes: a pure function of the workload and seed. Response
/// times are left to the fingerprint: across seeds their spread is far wider
/// than any bound (the median sits at the fixed service time, and offline
/// cells swing with the bursts that meet the first spin-ups).
std::vector<Metric> simulated_e2e(const storage::RunResult& r,
                                  std::uint64_t n) {
  return {
      {"energy_norm",
       r.normalized_energy(runner::paper_system_config().power), "ratio"},
      {"served_frac",
       static_cast<double>(r.total_requests) / static_cast<double>(n),
       "ratio"},
  };
}

std::vector<Metric> simulated_layers(const storage::RunResult& r) {
  double served = 0, ups = 0, downs = 0, active = 0, standby = 0;
  for (const auto& d : r.disk_stats) {
    served += static_cast<double>(d.requests_served);
    ups += static_cast<double>(d.spin_ups);
    downs += static_cast<double>(d.spin_downs);
    active += d.seconds(disk::DiskState::Active);
    standby += d.seconds(disk::DiskState::Standby);
  }
  const double disk_seconds =
      static_cast<double>(r.disk_stats.size()) * r.horizon;
  const auto& cs = r.cache_stats;
  const auto& rs = r.reliability_stats;
  const auto& fs = r.fault_stats;
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"disk.requests_served", served, "count"},
      {"disk.spin_ups", ups, "count"},
      {"disk.spin_downs", downs, "count"},
      {"disk.active_frac", active / disk_seconds, "ratio"},
      {"disk.standby_frac", standby / disk_seconds, "ratio"},
      {"disk.waited_spinup", count(r.requests_waited_spinup), "count"},
      {"cache.hit_ratio", cs.hit_ratio(), "ratio"},
      {"cache.evictions", count(cs.evictions), "count"},
      {"cache.destaged_blocks", count(cs.destaged_blocks), "count"},
      {"cache.destage_forced", count(cs.destage_forced), "count"},
      {"cache.writes_through", count(cs.writes_through), "count"},
      {"reliability.deadline_misses", count(rs.deadline_misses), "count"},
      {"reliability.retries", count(rs.retries), "count"},
      {"reliability.hedges_issued", count(rs.hedges_issued), "count"},
      {"reliability.hedge_wins", count(rs.hedge_wins), "count"},
      {"reliability.shed", count(rs.shed), "count"},
      {"reliability.abandoned", count(rs.abandoned), "count"},
      {"fault.failovers", count(fs.failovers), "count"},
      {"fault.rebuild_bytes", count(fs.rebuild_bytes), "B"},
      {"fault.degraded_frac", fs.degraded_seconds / r.horizon, "ratio"},
      {"fault.unavailable", count(fs.unavailable_requests), "count"},
  };
}

struct Rep {
  double ref_s = 0.0;  ///< the reference kernel, run before set-up
  double gen_s = 0.0;
  double place_s = 0.0;
  double cell_s = 0.0;  ///< run_cell + to_json(true)
  double emit_s = 0.0;  ///< the to_json(true) part, with the response sort
  long rss_after_setup_kib = 0;
  std::uint64_t fingerprint = 0;
  std::string error;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
};

Rep run_rep(const WorkloadDef& w, const runner::ExperimentParams& p,
            const runner::SchedulerSpec& spec, Reference& reference) {
  Rep rep;
  rep.ref_s = reference.run_s();
  const auto t0 = Clock::now();
  const trace::Trace trace = make_trace(w, p);
  const auto t1 = Clock::now();
  const placement::PlacementMap placement = runner::make_placement(p);
  const auto t2 = Clock::now();
  rep.rss_after_setup_kib = peak_rss_kib();
  const storage::RunResult result =
      runner::run_cell(spec, p, trace, placement);
  const auto t3 = Clock::now();
  const std::string json = result.to_json(true);
  const auto t4 = Clock::now();

  rep.gen_s = seconds_between(t0, t1);
  rep.place_s = seconds_between(t1, t2);
  rep.cell_s = seconds_between(t2, t4);
  rep.emit_s = seconds_between(t3, t4);
  rep.fingerprint = fingerprint(json, result.response_times.sorted());
  rep.error = check_result(result, p.num_requests);
  rep.e2e = simulated_e2e(result, p.num_requests);
  rep.layers = simulated_layers(result);
  return rep;
}

/// The golden fingerprint for `workload` in expected.json, or "" if absent.
std::string golden_for(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::size_t key = text.find('"' + workload + '"');
  if (key == std::string::npos) return {};
  const std::size_t open = text.find('"', text.find(':', key) + 1);
  const std::size_t close = text.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) return {};
  return text.substr(open + 1, close - open - 1);
}

/// Nearest-rank quantile of the sampled call times, net of one clock read.
double call_quantile_ns(std::vector<Clock::duration> calls, double q,
                        double clock_ns) {
  if (calls.empty()) return 0.0;
  const auto at = calls.begin() + static_cast<std::ptrdiff_t>(
                                      q * static_cast<double>(calls.size() - 1));
  std::nth_element(calls.begin(), at, calls.end());
  const double ns = std::chrono::duration<double, std::nano>(*at).count();
  return std::max(0.0, ns - clock_ns);
}

/// `untraced_cell_s` is already scaled to the nominal host.
std::vector<Metric> traced_layers(const Rep& traced,
                                  const bench::LayerProbe& probe,
                                  double untraced_cell_s, double bytes_per_req,
                                  std::uint64_t n) {
  const double scale = kReferenceSeconds / traced.ref_s;
  const double clock_ns = clock_read_ns();
  const double cell_s = traced.cell_s * scale;
  const double emit_s = traced.emit_s * scale;
  const double sched_s = probe.sched.seconds(clock_ns) * scale;
  const double policy_s = (probe.policy_idle.seconds(clock_ns) +
                           probe.policy_activity.seconds(clock_ns)) *
                          scale;
  const double residual_s = cell_s - sched_s - policy_s - emit_s;
  const double calls = static_cast<double>(probe.sched.calls);
  std::vector<Metric> m = {
      {"trace.gen_s", traced.gen_s * scale, "s"},
      {"placement.build_s", traced.place_s * scale, "s"},
      {"core.sched_s", sched_s, "s"},
      {"core.sched_calls", calls, "count"},
      {"core.sched_call_p50_ns",
       call_quantile_ns(probe.sched.timed, 0.50, clock_ns) * scale, "ns"},
      {"core.sched_call_p99_ns",
       call_quantile_ns(probe.sched.timed, 0.99, clock_ns) * scale, "ns"},
      {"core.batch_size_mean",
       calls > 0 ? static_cast<double>(probe.sched_requests) / calls : 0.0,
       "count"},
      {"graph.conflict_nodes", static_cast<double>(probe.graph_nodes),
       "count"},
      {"graph.conflict_edges", static_cast<double>(probe.graph_edges),
       "count"},
      {"graph.selected", static_cast<double>(probe.graph_selected), "count"},
      // A share, not seconds: offline cells build their oracle policy
      // inside storage, out of the decorators' reach, so it reads 0 there.
      {"power.policy_frac", policy_s / cell_s, "ratio"},
      {"power.idle_calls", static_cast<double>(probe.policy_idle.calls),
       "count"},
      {"power.activity_calls",
       static_cast<double>(probe.policy_activity.calls), "count"},
      {"storage.residual_s", residual_s, "s"},
      {"storage.ns_per_req", residual_s * 1e9 / static_cast<double>(n), "ns"},
      {"storage.bytes_per_req", bytes_per_req, "B"},
  };
  m.insert(m.end(), traced.layers.begin(), traced.layers.end());
  m.push_back({"runner.emit_s", emit_s, "s"});
  m.push_back({"bench.traced_cell_s", cell_s, "s"});
  m.push_back(
      {"bench.trace_overhead_frac", cell_s / untraced_cell_s - 1.0, "ratio"});
  return m;
}

void write_metrics(util::JsonWriter& w, const std::vector<Metric>& metrics) {
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

/// Runs one workload and prints its metrics; false when a check failed.
bool run_workload(const WorkloadDef& w, const Options& o) {
  const std::size_t n = o.requests > 0 ? o.requests : w.requests;
  const runner::ExperimentParams p = params_for(w, o.seed, n);

  bench::LayerProbe probe;
  runner::SchedulerRegistry registry = runner::SchedulerRegistry::paper_roster();
  registry.add(bench::traced(registry.at(w.scheduler), probe));
  const runner::SchedulerSpec& plain = registry.at(w.scheduler);
  const runner::SchedulerSpec& timed =
      registry.at(std::string(w.scheduler) + "+traced");

  // reps[0] warms the allocator (its cell runs on fresh pages, 10-30%
  // slower); it is checked like the others but not timed.
  Reference reference;
  std::vector<Rep> reps = {run_rep(w, p, plain, reference)};
  const auto start = Clock::now();
  while (reps.size() < 1 + kMinReps ||
         seconds_between(start, Clock::now()) < o.seconds) {
    reps.push_back(run_rep(w, p, plain, reference));
  }
  // Each cell is scaled by the reference runs on both sides of it: its own
  // rep's and the next one's (this one, after the last cell).
  const double last_ref_s = reference.run_s();
  const long peak_kib = peak_rss_kib();

  std::vector<std::string> errors;
  for (const Rep& r : reps) {
    if (!r.error.empty()) errors.push_back(r.error);
  }
  Rep traced;
  if (o.trace) {
    for (bench::Span* s :
         {&probe.sched, &probe.policy_idle, &probe.policy_activity}) {
      s->timed.reserve(n / bench::kSampleEvery + 1);
    }
    traced = run_rep(w, p, timed, reference);
    if (!traced.error.empty()) errors.push_back("traced: " + traced.error);
    if (traced.fingerprint != reps.front().fingerprint) {
      errors.push_back("traced rep fingerprint differs");
    }
  }
  for (const Rep& r : reps) {
    if (r.fingerprint != reps.front().fingerprint) {
      errors.push_back("untraced reps disagree on the fingerprint");
      break;
    }
  }
  const std::string fp = hex(reps.front().fingerprint);
  if (!o.expected.empty() && o.seed == 1 && n == w.requests) {
    const std::string golden = golden_for(o.expected, w.name);
    if (golden != fp) {
      errors.push_back("fingerprint " + fp + " != golden '" + golden + "'");
    }
  }

  std::vector<double> setup, cell, ref;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const double ref_after =
        i + 1 < reps.size() ? reps[i + 1].ref_s : last_ref_s;
    setup.push_back((reps[i].gen_s + reps[i].place_s) * kReferenceSeconds /
                    reps[i].ref_s);
    cell.push_back(reps[i].cell_s * kReferenceSeconds /
                   (0.5 * (reps[i].ref_s + ref_after)));
    ref.push_back(reps[i].ref_s);
  }
  const double cell_median = median(cell);
  std::vector<Metric> e2e = {
      {"setup_s", median(setup), "s"},
      {"req_per_s", static_cast<double>(n) / cell_median, "req/s"},
      {"peak_rss_mib", static_cast<double>(peak_kib) / 1024.0, "MiB"},
  };
  e2e.insert(e2e.end(), reps.front().e2e.begin(), reps.front().e2e.end());
  std::vector<Metric> layers;
  if (o.trace) {
    const double bytes_per_req =
        static_cast<double>(peak_kib - reps.front().rss_after_setup_kib) *
        1024.0 / static_cast<double>(n);
    layers = traced_layers(traced, probe, cell_median, bytes_per_req, n);
    layers.push_back({"bench.ref_s", median(ref), "s"});
  }

  const bool correct = errors.empty();
  const std::uint64_t attempted = n * (reps.size() + (o.trace ? 1 : 0));
  for (const std::string& e : errors) {
    std::cerr << w.name << ": check failed: " << e << "\n";
  }
  std::cout << "# " << w.name << " seed=" << o.seed << " requests=" << n
            << " timed_reps=" << cell.size() << " traced=" << o.trace
            << " fingerprint=" << fp << "\n";
  for (const auto* set : {&e2e, &layers}) {
    for (const Metric& m : *set) {
      std::cout << w.name << ' ' << m.name << ' '
                << util::json_number(m.value) << ' ' << m.unit << "\n";
    }
  }

  if (!o.out.empty()) {
    std::ofstream rec(o.out, std::ios::app);
    util::JsonWriter jw(rec);
    jw.begin_object();
    jw.field("workload", w.name);
    jw.field("seed", o.seed);
    jw.field("requests", static_cast<std::uint64_t>(n));
    jw.field("timed_reps", static_cast<std::uint64_t>(cell.size()));
    jw.field("traced", o.trace);
    jw.field("correct", correct);
    jw.field("fingerprint", fp);
    std::vector<Metric> all = e2e;
    all.insert(all.end(), layers.begin(), layers.end());
    jw.key("metrics");
    write_metrics(jw, all);
    jw.end_object();
    rec << "\n";
    if (!rec) {
      std::cerr << "cannot append the record to " << o.out << "\n";
      return false;
    }
  }

  // The last line: the result record the benchmark contract asks for.
  util::JsonWriter jw(std::cout);
  jw.begin_object();
  jw.field("correct", correct);
  jw.field("attempted", attempted);
  jw.field("failed", correct ? std::uint64_t{0} : attempted);
  jw.key("metrics");
  write_metrics(jw, o.trace ? layers : e2e);
  jw.end_object();
  std::cout << std::endl;
  return correct;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "bench_e2e: " << error << "\n"
            << "usage: bench_e2e [--workload NAME|all] [--seed S] "
               "[--seconds T] [--trace 0|1]\n"
               "                 [--requests N] [--expected FILE] "
               "[--out FILE] | --list\n";
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " wants a whole number, got '" + v + "'");
  }
  try {
    return std::stoull(v);
  } catch (const std::out_of_range&) {
    usage(flag + " is out of range: " + v);
  }
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      for (const WorkloadDef& w : kWorkloads) std::cout << w.name << "\n";
      std::exit(0);
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_count(flag, v);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_count(flag, v));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--requests") {
      o.requests = parse_count(flag, v);
    } else if (flag == "--expected") {
      o.expected = v;
    } else if (flag == "--out") {
      o.out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  std::vector<const WorkloadDef*> selected;
  for (const WorkloadDef& w : kWorkloads) {
    if (o.workload == "all" || o.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) usage("unknown workload " + o.workload);
  bool ok = true;
  try {
    for (const WorkloadDef* w : selected) ok = run_workload(*w, o) && ok;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
  return ok ? 0 : 1;
}
