// Reliability tier tests: deterministic retry policy, config/builder
// validation (including the eager std::invalid_argument hardening of the
// builder setters), deadlines + retries, hedged reads, admission control,
// the transient-fault interaction (shared attempt budget, exactly-once
// accounting), and bit-identical results across repeated runs and sweep
// thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/basic_schedulers.hpp"
#include "core/cost_scheduler.hpp"
#include "core/predictive_scheduler.hpp"
#include "disk/disk.hpp"
#include "paper_example.hpp"
#include "power/fixed_threshold.hpp"
#include "power/policy.hpp"
#include "reliability/reliability.hpp"
#include "reliability/retry_policy.hpp"
#include "runner/emit.hpp"
#include "runner/experiment.hpp"
#include "runner/sweep.hpp"
#include "scripted_fleet.hpp"
#include "sim/simulator.hpp"
#include "storage/storage_system.hpp"
#include "util/check.hpp"

namespace eas {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------- RetryPolicy

TEST(RetryPolicy, BackoffIsPureCappedAndJitterBounded) {
  const reliability::RetryPolicy p(0.010, 0.080, 0.5, 99);
  // Pure function of (seed, id, attempt): same inputs, same delay.
  EXPECT_EQ(p.backoff_delay(7, 2), p.backoff_delay(7, 2));
  // Different requests and different attempts draw different jitter.
  EXPECT_NE(p.backoff_delay(7, 2), p.backoff_delay(8, 2));
  EXPECT_NE(p.backoff_delay(7, 2), p.backoff_delay(7, 3));
  for (std::uint32_t attempt = 2; attempt <= 12; ++attempt) {
    const double raw = std::min(0.080, 0.010 * std::ldexp(1.0, attempt - 2));
    const double d = p.backoff_delay(42, attempt);
    EXPECT_GT(d, raw * 0.5);  // jitter shrinks by at most jitter_fraction
    EXPECT_LE(d, raw);
    EXPECT_LE(d, 0.080);  // cap
  }
}

TEST(RetryPolicy, ZeroJitterIsExactExponential) {
  const reliability::RetryPolicy p(0.010, 1.0, 0.0, 1);
  EXPECT_DOUBLE_EQ(p.backoff_delay(5, 2), 0.010);
  EXPECT_DOUBLE_EQ(p.backoff_delay(5, 3), 0.020);
  EXPECT_DOUBLE_EQ(p.backoff_delay(5, 4), 0.040);
}

// ------------------------------------------------------- config validation

TEST(ReliabilityConfig, ValidateRejectsNonsense) {
  reliability::ReliabilityConfig c;
  c.enabled = true;
  c.deadline_seconds = -1.0;
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.deadline_seconds = kNan;
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.max_attempts = 0;
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.backoff_cap_seconds = c.backoff_base_seconds / 2.0;  // cap < base
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.jitter_fraction = 1.5;
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.hedge_delay_seconds = -0.1;
  EXPECT_THROW(c.validate(), InvariantError);
  c = {};
  c.enabled = true;
  c.max_queue_depth = 8;
  c.backpressure_watermark = 0.0;  // outside (0, 1]
  EXPECT_THROW(c.validate(), InvariantError);
  // Disabled configs are never checked, whatever the other fields hold.
  c = {};
  c.deadline_seconds = kNan;
  EXPECT_NO_THROW(c.validate());
}

// ---------------------------------------- builder hardening (satellite: 1)

/// Expects `fn` to throw std::invalid_argument whose message names `field`.
template <typename Fn>
void expect_invalid_argument(Fn&& fn, const std::string& field) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message does not name the field: " << e.what();
  }
}

TEST(ExperimentBuilder, ReliabilityRejectsBadFieldsByName) {
  using runner::ExperimentBuilder;
  expect_invalid_argument(
      [] {
        reliability::ReliabilityConfig c;
        c.deadline_seconds = kNan;
        ExperimentBuilder().reliability(c);
      },
      "reliability.deadline_seconds");
  expect_invalid_argument(
      [] {
        reliability::ReliabilityConfig c;
        c.backoff_base_seconds = -0.01;
        ExperimentBuilder().reliability(c);
      },
      "reliability.backoff_base_seconds");
  expect_invalid_argument(
      [] {
        reliability::ReliabilityConfig c;
        c.jitter_fraction = 2.0;
        ExperimentBuilder().reliability(c);
      },
      "reliability.jitter_fraction");
  expect_invalid_argument(
      [] {
        reliability::ReliabilityConfig c;
        c.hedge_delay_seconds = kInf;
        ExperimentBuilder().reliability(c);
      },
      "reliability.hedge_delay_seconds");
  expect_invalid_argument(
      [] {
        reliability::ReliabilityConfig c;
        c.max_attempts = 0;
        ExperimentBuilder().reliability(c);
      },
      "reliability.max_attempts");
  // A clean config passes and is enabled by the call.
  reliability::ReliabilityConfig ok;
  ok.deadline_seconds = 0.5;
  const auto p = runner::ExperimentBuilder().reliability(ok).build();
  EXPECT_TRUE(p.reliability.enabled);
  EXPECT_DOUBLE_EQ(p.reliability.deadline_seconds, 0.5);
}

TEST(ExperimentBuilder, CacheRejectsBadFieldsByName) {
  using runner::ExperimentBuilder;
  expect_invalid_argument(
      [] {
        cache::CacheConfig c;
        c.dram_latency_seconds = kNan;
        ExperimentBuilder().cache(c);
      },
      "cache.dram_latency_seconds");
  expect_invalid_argument(
      [] {
        cache::CacheConfig c;
        c.memory_watts_per_gib = -1.0;
        ExperimentBuilder().cache(c);
      },
      "cache.memory_watts_per_gib");
  expect_invalid_argument(
      [] {
        cache::CacheConfig c;
        c.high_watermark = kInf;
        ExperimentBuilder().cache(c);
      },
      "cache.high_watermark");
  expect_invalid_argument(
      [] {
        cache::CacheConfig c;
        c.destage_deadline_seconds = 0.0;
        ExperimentBuilder().cache(c);
      },
      "cache.destage_deadline_seconds");
  expect_invalid_argument(
      [] {
        cache::CacheConfig c;
        c.block_bytes = 0;
        ExperimentBuilder().cache(c);
      },
      "cache.block_bytes");
}

TEST(ExperimentBuilder, FailDiskAtRejectsBadTimesByName) {
  using runner::ExperimentBuilder;
  expect_invalid_argument(
      [] { ExperimentBuilder().fail_disk_at(0, kNan); }, "fail_disk_at.time");
  expect_invalid_argument(
      [] { ExperimentBuilder().fail_disk_at(0, -5.0); }, "fail_disk_at.time");
  expect_invalid_argument(
      [] { ExperimentBuilder().fail_disk_at(0, 5.0, -1.0); },
      "fail_disk_at.repair");
  expect_invalid_argument(
      [] { ExperimentBuilder().fail_disk_at(0, 5.0, kInf); },
      "fail_disk_at.repair");
}

// One rule set per tier config: every boundary value gets the same verdict
// from Config::validate() and from the builder setter, and a rejection
// names the field either way.

template <typename Config>
struct Boundary {
  std::string field;
  std::function<void(Config&)> set;
  bool valid;
};

template <typename Config, typename T>
Boundary<Config> boundary(const char* field, T Config::*member,
                          std::type_identity_t<T> value, bool valid) {
  return {field, [member, value](Config& c) { c.*member = value; }, valid};
}

template <typename Config, typename Setter>
void expect_one_rule_set(const std::vector<Boundary<Config>>& rows,
                         const std::string& prefix, Setter&& setter) {
  for (const auto& row : rows) {
    Config c;
    row.set(c);
    c.enabled = true;
    const std::string field = prefix + row.field;
    SCOPED_TRACE(field);
    bool validate_ok = true;
    try {
      c.validate();
    } catch (const InvariantError& e) {
      validate_ok = false;
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
    bool setter_ok = true;
    try {
      setter(c);
    } catch (const std::invalid_argument& e) {
      setter_ok = false;
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(validate_ok, row.valid);
    EXPECT_EQ(setter_ok, row.valid);
  }
}

TEST(ExperimentBuilder, CacheSetterAndValidateAgreeOnEveryBoundary) {
  using C = cache::CacheConfig;
  std::vector<Boundary<C>> rows;
  for (const auto& [name, member] :
       {std::pair{"dram_latency_seconds", &C::dram_latency_seconds},
        std::pair{"destage_deadline_seconds", &C::destage_deadline_seconds}}) {
    for (double v : {kNan, kInf, -kInf, -1e-9, 0.0}) {
      rows.push_back(boundary(name, member, v, false));
    }
    rows.push_back(boundary(name, member, 1e-9, true));
  }
  for (double v : {kNan, kInf, -1e-9}) {
    rows.push_back(boundary("memory_watts_per_gib", &C::memory_watts_per_gib,
                            v, false));
  }
  rows.push_back(
      boundary("memory_watts_per_gib", &C::memory_watts_per_gib, 0.0, true));
  // Counts: 0 (false) is rejected, 1 (true) is the smallest legal value.
  for (const bool valid : {false, true}) {
    rows.push_back(boundary("block_bytes", &C::block_bytes, valid, valid));
    rows.push_back(
        boundary("max_destage_batch", &C::max_destage_batch, valid, valid));
  }
  // Defaults: low 0.5 < high 0.75; the inverted pair is a low_watermark row.
  for (double v : {kNan, kInf, -1e-9, 0.0, 1.0 + 1e-9}) {
    rows.push_back(boundary("high_watermark", &C::high_watermark, v, false));
  }
  rows.push_back(boundary("high_watermark", &C::high_watermark, 0.5 + 1e-9,
                          true));
  rows.push_back(boundary("high_watermark", &C::high_watermark, 1.0, true));
  for (double v : {kNan, -kInf, -1e-9, 0.75, 1.0}) {
    rows.push_back(boundary("low_watermark", &C::low_watermark, v, false));
  }
  rows.push_back(boundary("low_watermark", &C::low_watermark, 0.0, true));
  rows.push_back(boundary("low_watermark", &C::low_watermark, 0.75 - 1e-9,
                          true));
  expect_one_rule_set(rows, "cache.", [](const C& c) {
    runner::ExperimentBuilder().cache(c);
  });
}

TEST(ExperimentBuilder, ReliabilitySetterAndValidateAgreeOnEveryBoundary) {
  using R = reliability::ReliabilityConfig;
  std::vector<Boundary<R>> rows;
  for (const auto& [name, member] :
       {std::pair{"deadline_seconds", &R::deadline_seconds},
        std::pair{"backoff_base_seconds", &R::backoff_base_seconds},
        std::pair{"hedge_delay_seconds", &R::hedge_delay_seconds}}) {
    for (double v : {kNan, kInf, -kInf, -1e-9}) {
      rows.push_back(boundary(name, member, v, false));
    }
    rows.push_back(boundary(name, member, 0.0, true));
  }
  // 0 (false) attempts is rejected, 1 (true) is the smallest legal value.
  for (const bool valid : {false, true}) {
    rows.push_back(boundary("max_attempts", &R::max_attempts, valid, valid));
  }
  // Default base is 0.010: the cap may equal it, not undercut it.
  for (double v : {kNan, kInf, -1e-9, 0.0, 0.010 - 1e-9}) {
    rows.push_back(
        boundary("backoff_cap_seconds", &R::backoff_cap_seconds, v, false));
  }
  rows.push_back(
      boundary("backoff_cap_seconds", &R::backoff_cap_seconds, 0.010, true));
  for (double v : {kNan, kInf, -1e-9, 1.0 + 1e-9}) {
    rows.push_back(boundary("jitter_fraction", &R::jitter_fraction, v, false));
  }
  rows.push_back(boundary("jitter_fraction", &R::jitter_fraction, 0.0, true));
  rows.push_back(boundary("jitter_fraction", &R::jitter_fraction, 1.0, true));
  // The watermark is checked with and without a queue bound; 0 is only
  // meaningless (hence allowed) without one.
  for (std::uint32_t depth : {0u, 8u}) {
    auto watermark = [depth](double v, bool valid) {
      return Boundary<R>{"backpressure_watermark",
                         [depth, v](R& c) {
                           c.max_queue_depth = depth;
                           c.backpressure_watermark = v;
                         },
                         valid};
    };
    for (double v : {kNan, kInf, -kInf, -1e-9, 1.0 + 1e-9}) {
      rows.push_back(watermark(v, false));
    }
    rows.push_back(watermark(0.0, depth == 0));
    rows.push_back(watermark(1e-9, true));
    rows.push_back(watermark(1.0, true));
  }
  expect_one_rule_set(rows, "reliability.", [](const R& c) {
    runner::ExperimentBuilder().reliability(c);
  });
}

// -------------------------------------------------------------- end to end

/// `n` same-size requests for `data` arriving `gap` seconds apart starting
/// at `start`.
trace::Trace burst(DataId data, int n, double start = 0.0, double gap = 0.0,
                   bool is_read = true) {
  std::vector<trace::TraceRecord> recs;
  for (int i = 0; i < n; ++i) {
    trace::TraceRecord r;
    r.time = start + gap * i;
    r.data = data;
    r.size_bytes = 512 * 1024;
    r.is_read = is_read;
    recs.push_back(r);
  }
  return trace::Trace(std::move(recs));
}

storage::SystemConfig base_config() {
  storage::SystemConfig cfg;
  cfg.power = disk::example_power_params();
  cfg.initial_state = disk::DiskState::Idle;
  return cfg;
}

storage::RunResult run_static(const storage::SystemConfig& cfg,
                              const trace::Trace& trace) {
  core::StaticScheduler sched;
  power::AlwaysOnPolicy policy;
  return storage::run_online(cfg, testing::example_placement(), trace, sched,
                             policy);
}

TEST(ReliabilityRun, DisabledTierIsByteIdenticalWhateverItsFieldsSay) {
  const auto trace = burst(/*data=*/2, /*n=*/12);
  const auto a = run_static(base_config(), trace);
  storage::SystemConfig cfg = base_config();
  cfg.reliability.deadline_seconds = 0.001;  // would retry furiously...
  cfg.reliability.max_queue_depth = 1;       // ...and shed everything
  cfg.reliability.enabled = false;           // but the tier is off
  const auto b = run_static(cfg, trace);
  EXPECT_EQ(a.to_json(true), b.to_json(true));
  EXPECT_EQ(a.to_json(true).find("reliability"), std::string::npos);
}

TEST(ReliabilityRun, DeadlineMissesRetryToAnAlternateReplicaAndComplete) {
  // 30 reads of b3 (disks {0,1,3}) all at t=0, StaticScheduler -> all queue
  // on disk 0 at ~10 ms service each. A 30 ms per-attempt deadline pulls
  // the deep entries back and retries them on another replica.
  storage::SystemConfig cfg = base_config();
  cfg.reliability.enabled = true;
  cfg.reliability.deadline_seconds = 0.030;
  cfg.reliability.max_attempts = 6;
  cfg.reliability.backoff_base_seconds = 0.005;
  cfg.reliability.backoff_cap_seconds = 0.020;
  const auto r = run_static(cfg, burst(2, 30));
  EXPECT_TRUE(r.reliability_enabled);
  EXPECT_GT(r.reliability_stats.deadline_misses, 0u);
  EXPECT_GT(r.reliability_stats.retries, 0u);
  // Every request is accounted exactly once: completed or abandoned.
  EXPECT_EQ(r.total_requests + r.reliability_stats.abandoned, 30u);
  EXPECT_EQ(r.reliability_stats.shed, 0u);
  // Retries spread the flood across replicas: disk 0 no longer serves all.
  EXPECT_LT(r.disk_stats[0].requests_served, 30u);
}

TEST(ReliabilityRun, HedgedReadsWinOnABackloggedPrimaryAndCountOnce) {
  // 20 reads of b1 (disk 0 only, unhedgeable) backlog disk 0 ~200 ms deep;
  // 5 reads of b3 queue behind them. Their 15 ms hedges land on idle disk 1
  // and win while the primaries crawl the backlog.
  storage::SystemConfig cfg = base_config();
  cfg.reliability.enabled = true;
  cfg.reliability.hedge_delay_seconds = 0.015;
  std::vector<trace::TraceRecord> recs;
  for (int i = 0; i < 20; ++i) {
    trace::TraceRecord rec;
    rec.data = 0;
    recs.push_back(rec);
  }
  for (int i = 0; i < 5; ++i) {
    trace::TraceRecord rec;
    rec.data = 2;
    recs.push_back(rec);
  }
  const auto r = run_static(cfg, trace::Trace(std::move(recs)));
  // Only the replicated reads can hedge, and every one of their hedges wins.
  EXPECT_EQ(r.reliability_stats.hedges_issued, 5u);
  EXPECT_EQ(r.reliability_stats.hedge_wins, 5u);
  // First-completion-wins must never double count a request.
  EXPECT_EQ(r.total_requests, 25u);
  EXPECT_EQ(r.response_times.count(), 25u);
  // The winner pool spans both disks.
  EXPECT_EQ(r.disk_stats[1].requests_served, 5u);
}

TEST(ReliabilityRun, AdmissionControlShedsOldestReadsUnderOverload) {
  storage::SystemConfig cfg = base_config();
  cfg.reliability.enabled = true;
  cfg.reliability.max_queue_depth = 3;
  const auto r = run_static(cfg, burst(2, 40));
  EXPECT_GT(r.reliability_stats.shed, 0u);
  EXPECT_EQ(r.total_requests + r.reliability_stats.shed, 40u);
  // Shed requests never produce a response sample.
  EXPECT_EQ(r.response_times.count(), r.total_requests);
}

TEST(ReliabilityRun, WritesDegradeToWriteThroughInsteadOfShedding) {
  storage::SystemConfig cfg = base_config();
  cfg.reliability.enabled = true;
  cfg.reliability.max_queue_depth = 3;
  const auto r = run_static(cfg, burst(2, 40, 0.0, 0.0, /*is_read=*/false));
  EXPECT_EQ(r.reliability_stats.shed, 0u);
  EXPECT_GT(r.reliability_stats.writes_degraded, 0u);
  EXPECT_EQ(r.total_requests, 40u);  // bounded queues never drop writes
}

TEST(ReliabilityRun, JsonCarriesTheTierBlockOnlyWhenEnabled) {
  storage::SystemConfig cfg = base_config();
  cfg.reliability.enabled = true;
  cfg.reliability.hedge_delay_seconds = 0.015;
  const auto r = run_static(cfg, burst(2, 10));
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"reliability\""), std::string::npos);
  EXPECT_NE(json.find("\"hedge_wins\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_misses\""), std::string::npos);
  EXPECT_NE(json.find("\"shed\""), std::string::npos);
}

// --------------------------------- transient faults (satellite: coverage)

/// A transient outage on disk 0 over [2, 5) with b3 reads queued when it
/// hits and arriving throughout.
storage::SystemConfig transient_config() {
  storage::SystemConfig cfg = base_config();
  fault::ScriptedFault f;
  f.kind = fault::ScriptedFault::Kind::kTransient;
  f.disk = 0;
  f.time = 2.0;
  f.duration = 3.0;
  cfg.fault.script.push_back(f);
  return cfg;
}

trace::Trace transient_trace() {
  // A queue on disk 0 at the moment the outage hits (burst just before
  // t=2), plus a steady stream across the outage and past recovery.
  std::vector<trace::TraceRecord> recs;
  for (int i = 0; i < 6; ++i) {
    trace::TraceRecord r;
    r.time = 1.98;
    r.data = 2;
    r.size_bytes = 512 * 1024;
    r.is_read = true;
    recs.push_back(r);
  }
  for (int i = 0; i < 30; ++i) {
    trace::TraceRecord r;
    r.time = 0.5 + 0.25 * i;  // spans [0.5, 7.75]
    r.data = 2;
    r.size_bytes = 512 * 1024;
    r.is_read = true;
    recs.push_back(r);
  }
  return trace::Trace(std::move(recs));
}

TEST(TransientFault, QueuedRequestsFailOverAndEveryRequestCountsOnce) {
  const auto r = run_static(transient_config(), transient_trace());
  EXPECT_TRUE(r.faults_enabled);
  EXPECT_EQ(r.fault_stats.transient_timeouts, 1u);
  EXPECT_EQ(r.fault_stats.disk_failures, 0u);
  EXPECT_EQ(r.fault_stats.repairs, 1u);
  EXPECT_GT(r.fault_stats.failovers, 0u);  // drained queue + outage routing
  // b3 has replicas on disks 1 and 3, so nothing is unavailable and every
  // request completes exactly once — queued-at-outage ones included.
  EXPECT_EQ(r.fault_stats.unavailable_requests, 0u);
  EXPECT_EQ(r.total_requests, 36u);
  EXPECT_EQ(r.response_times.count(), 36u);
}

TEST(TransientFault, RecoveryRestoresServiceOnTheDisk) {
  const auto r = run_static(transient_config(), transient_trace());
  // Requests arriving after t=5 route back to the original location, so the
  // recovered disk serves part of the stream again.
  EXPECT_GT(r.disk_stats[0].requests_served, 0u);
  EXPECT_GT(r.disk_stats[1].requests_served, 0u);
}

TEST(TransientFault, RepeatedRunsAreBitIdentical) {
  const auto a = run_static(transient_config(), transient_trace());
  const auto b = run_static(transient_config(), transient_trace());
  EXPECT_EQ(a.to_json(true), b.to_json(true));
}

TEST(TransientFault, ReliabilityRetriesShareTheAttemptBudgetWithFailover) {
  // Same outage with the reliability tier on: deadline retries and the
  // failover of the drained queue draw one budget — the run must terminate
  // with every request accounted exactly once (completed or abandoned) and
  // never double-dispatched (total served >= completed is the only slack,
  // from in-service copies that a deadline could not pull back).
  storage::SystemConfig cfg = transient_config();
  cfg.reliability.enabled = true;
  cfg.reliability.deadline_seconds = 0.050;
  cfg.reliability.max_attempts = 3;
  cfg.reliability.backoff_base_seconds = 0.005;
  cfg.reliability.backoff_cap_seconds = 0.020;
  const auto r = run_static(cfg, transient_trace());
  EXPECT_TRUE(r.reliability_enabled);
  EXPECT_EQ(r.total_requests + r.reliability_stats.abandoned +
                r.fault_stats.unavailable_requests,
            36u);
  EXPECT_EQ(r.response_times.count(), r.total_requests);
  const auto again = run_static(cfg, transient_trace());
  EXPECT_EQ(r.to_json(true), again.to_json(true));
}

TEST(FailStop, NoReplicaGiveUpCountsUnavailableOnly) {
  // rf=1: data 0 lives only on disk 0, which dies for good at t=0.04. The
  // t=0 burst times out at 25 ms and retries at 55 ms, after the failure
  // (the retry path); the t=0.03 burst is still queued when the disk dies
  // (the failover drain). Neither finds a live replica. Each such request
  // is unavailable, not also abandoned, so the four buckets sum to the
  // trace length.
  std::vector<trace::TraceRecord> recs;
  for (double t : {0.0, 0.03}) {
    for (int i = 0; i < 10; ++i) {
      trace::TraceRecord r;
      r.time = t;
      r.data = 0;
      recs.push_back(r);
    }
  }
  trace::TraceRecord late;  // on disk 1: keeps the failure inside the horizon
  late.time = 1.0;
  late.data = 1;
  recs.push_back(late);
  const trace::Trace trace(std::move(recs));
  storage::SystemConfig cfg = base_config();
  fault::ScriptedFault f;
  f.kind = fault::ScriptedFault::Kind::kFailStop;
  f.disk = 0;
  f.time = 0.04;
  cfg.fault.script.push_back(f);
  cfg.reliability.enabled = true;
  cfg.reliability.deadline_seconds = 0.025;
  cfg.reliability.max_attempts = 3;
  cfg.reliability.backoff_base_seconds = 0.030;
  cfg.reliability.backoff_cap_seconds = 0.030;
  cfg.reliability.jitter_fraction = 0.0;
  core::StaticScheduler sched;
  power::AlwaysOnPolicy policy;
  const auto r = storage::run_online(
      cfg, placement::PlacementMap(2, {{0}, {1}}), trace, sched, policy);
  EXPECT_EQ(r.fault_stats.disk_failures, 1u);
  EXPECT_GT(r.reliability_stats.deadline_misses, 0u);  // the retry path ran
  EXPECT_EQ(r.reliability_stats.retries, 0u);          // ...and gave up
  EXPECT_EQ(r.fault_stats.unavailable_requests, 15u);
  EXPECT_EQ(r.reliability_stats.abandoned, 0u);
  EXPECT_EQ(r.total_requests + r.reliability_stats.shed +
                r.reliability_stats.abandoned +
                r.fault_stats.unavailable_requests,
            trace.size());
}

// ------------------------------- request kinds: primary + hedge, one queue

// Kinds ride in the padding after `data`; tagging requests must not grow the
// struct every queue entry and completion carries.
static_assert(sizeof(disk::Request) <= 48);

TEST(RequestKinds, DiskQueueMatchesOnIdAndKind) {
  sim::Simulator sim;
  disk::Disk d(0, sim, testing::example_power(), disk::DiskPerfParams{},
               disk::DiskState::Idle);
  disk::Request r;
  r.id = 7;
  r.data = 2;
  d.submit(r);  // straight into service: never a queue candidate
  r.kind = disk::RequestKind::kHedge;
  d.submit(r);
  r.kind = disk::RequestKind::kForeground;
  d.submit(r);  // queue: [hedge 7, primary 7]
  ASSERT_EQ(d.oldest_queued_read()->kind, disk::RequestKind::kHedge);
  EXPECT_TRUE(d.remove_pending(7, disk::RequestKind::kForeground));
  // The primary left; the older hedge copy with the same id stayed.
  ASSERT_NE(d.oldest_queued_read(), nullptr);
  EXPECT_EQ(d.oldest_queued_read()->kind, disk::RequestKind::kHedge);
  EXPECT_FALSE(d.remove_pending(7, disk::RequestKind::kForeground));
  EXPECT_TRUE(d.remove_pending(7, disk::RequestKind::kHedge));
  EXPECT_EQ(d.oldest_queued_read(), nullptr);
  sim.run();
}

/// Routes request i to picks[i]; the test owns every placement decision.
class ScriptedScheduler final : public core::OnlineScheduler {
 public:
  explicit ScriptedScheduler(std::vector<DiskId> picks)
      : picks_(std::move(picks)) {}
  std::string name() const override { return "scripted"; }
  DiskId pick(const disk::Request& r, const core::SystemView&) override {
    return picks_.at(r.id);
  }

 private:
  std::vector<DiskId> picks_;
};

/// Request 5 reads b3 (disks {0,1,3}) on disk 0 behind five writes; its
/// hedge fires at 15 ms onto disk 1, where it queues behind five more
/// writes. Disk 0 then dies at 20 ms: the drained primary fails over to
/// disk 1, the first live replica, so disk 1's queue holds request 5 twice
/// — hedge copy first, primary behind it. `late_reads` b2 reads arrive on
/// disk 1 at 30 ms (unhedgeable: b2's other replica is disk 0), and one
/// unrelated read on disk 2 at 2 s. Service takes ~9.9 ms per request.
storage::RunResult run_primary_beside_hedge(std::uint32_t max_queue_depth,
                                            int late_reads) {
  std::vector<trace::TraceRecord> recs;
  std::vector<DiskId> picks;
  auto add = [&](double t, DataId data, bool is_read, DiskId k) {
    trace::TraceRecord rec;
    rec.time = t;
    rec.data = data;
    rec.is_read = is_read;
    recs.push_back(rec);
    picks.push_back(k);
  };
  for (int i = 0; i < 5; ++i) add(0.0, /*b2=*/1, false, 0);
  add(0.0, /*b3=*/2, true, 0);
  for (int i = 0; i < 5; ++i) add(0.0, /*b2=*/1, false, 1);
  for (int i = 0; i < late_reads; ++i) add(0.03, /*b2=*/1, true, 1);
  add(2.0, /*b4=*/3, true, 2);  // keeps the outage inside the trace horizon
  storage::SystemConfig cfg = base_config();
  fault::ScriptedFault f;
  f.kind = fault::ScriptedFault::Kind::kTransient;
  f.disk = 0;
  f.time = 0.02;
  f.duration = 1.0;
  cfg.fault.script.push_back(f);
  cfg.reliability.enabled = true;
  cfg.reliability.hedge_delay_seconds = 0.015;
  cfg.reliability.max_queue_depth = max_queue_depth;
  ScriptedScheduler sched(std::move(picks));
  power::AlwaysOnPolicy policy;
  return storage::run_online(cfg, testing::example_placement(),
                             trace::Trace(std::move(recs)), sched, policy);
}

std::uint64_t retired(const storage::RunResult& r) {
  return r.total_requests + r.reliability_stats.shed +
         r.reliability_stats.abandoned + r.fault_stats.unavailable_requests;
}

TEST(RequestKinds, HedgeWinRemovesThePrimaryQueuedBehindIt) {
  const auto r = run_primary_beside_hedge(/*max_queue_depth=*/0, 0);
  EXPECT_GT(r.fault_stats.failovers, 0u);
  EXPECT_EQ(r.reliability_stats.hedges_issued, 1u);
  // The hedge copy reaches the head of disk 1's queue first and wins; the
  // primary queued behind it is pulled back, never served.
  EXPECT_EQ(r.reliability_stats.hedge_wins, 1u);
  EXPECT_EQ(r.total_requests, 12u);
  EXPECT_EQ(retired(r), 12u);
  std::uint64_t served = 0;  // one service per request: no copy ran twice
  for (const auto& ds : r.disk_stats) served += ds.requests_served;
  EXPECT_EQ(served, 12u);
}

TEST(RequestKinds, ShedTakesTheHedgeCopyAndThePrimaryCompletes) {
  // Disk 1 is full when the second late read arrives: admission control
  // sheds the oldest queued read — request 5's hedge copy — and the primary
  // behind it still serves request 5.
  const auto r = run_primary_beside_hedge(/*max_queue_depth=*/7, 2);
  EXPECT_GT(r.fault_stats.failovers, 0u);
  EXPECT_EQ(r.reliability_stats.hedges_issued, 1u);
  EXPECT_EQ(r.reliability_stats.hedge_wins, 0u);
  EXPECT_EQ(r.reliability_stats.shed, 0u);  // a hedge copy is not a request
  EXPECT_EQ(r.total_requests, 14u);
  EXPECT_EQ(retired(r), 14u);
  std::uint64_t served = 0;  // one service per request: no copy ran twice
  for (const auto& ds : r.disk_stats) served += ds.requests_served;
  EXPECT_EQ(served, 14u);
}

TEST(ReliabilityRun, SurvivesAFixedThresholdPolicyWithHedging) {
  // Hedge pins must hold the planned alternate spinning (and re-kick the
  // policy when released) — the run completes without stranding a disk.
  storage::SystemConfig cfg = base_config();
  cfg.initial_state = disk::DiskState::Standby;
  cfg.reliability.enabled = true;
  cfg.reliability.hedge_delay_seconds = 0.015;
  core::StaticScheduler sched;
  power::FixedThresholdPolicy policy;
  const auto r = storage::run_online(cfg, testing::example_placement(),
                                     burst(2, 20, 0.0, 0.5), sched, policy);
  EXPECT_EQ(r.total_requests, 20u);
  EXPECT_LE(r.reliability_stats.hedge_wins,
            r.reliability_stats.hedges_issued);
}

// ------------------------------------------------- scheduler backpressure

// A disk is backpressured while its queue depth (in-service request
// included) has reached the view's watermark. Both tests price pure energy
// (alpha = 1), so the depth itself adds nothing to a disk's cost.

TEST(Backpressure, CostSchedulerRoutesAroundABackpressuredDisk) {
  // b2 (data 1) lives on disks {0, 1}. Disk 0 is the cheaper idle window;
  // a queue at the watermark multiplies its cost past disk 1's.
  constexpr std::size_t kWatermark = 3;
  testing::ScriptedFleet fleet(testing::example_placement());
  fleet.view.set_backpressure_watermark(kWatermark);
  fleet.view.set_now(50.0);
  fleet.rows[0].state = disk::DiskState::Idle;
  fleet.rows[0].state_since = 0.0;
  fleet.rows[0].last_request_time = 40.0;  // 10 J idle extension
  fleet.rows[1].state = disk::DiskState::Idle;
  fleet.rows[1].state_since = 0.0;
  fleet.rows[1].last_request_time = 20.0;  // 30 J idle extension
  disk::Request r;
  r.id = 1;
  r.data = 1;
  core::CostFunctionScheduler sched(core::CostParams{1.0, 100.0});
  EXPECT_EQ(sched.pick(r, fleet.view), 0u);
  fleet.rows[0].queued_requests = kWatermark - 1;  // one below: no pressure
  EXPECT_FALSE(fleet.view.backpressured(0));
  EXPECT_EQ(sched.pick(r, fleet.view), 0u);
  fleet.rows[0].queued_requests = kWatermark;  // 10 J * 4 > 30 J
  EXPECT_TRUE(fleet.view.backpressured(0));
  EXPECT_EQ(sched.pick(r, fleet.view), 1u);
  fleet.rows[0].queued_requests = 0;
  EXPECT_EQ(sched.pick(r, fleet.view), 0u);
  // Watermark 0 is the tier switched off: no depth is pressured.
  fleet.view.set_backpressure_watermark(0);
  fleet.rows[0].queued_requests = 1000;
  EXPECT_FALSE(fleet.view.backpressured(0));
  EXPECT_EQ(sched.pick(r, fleet.view), 0u);
}

TEST(Backpressure, PredictiveSchedulerAppliesTheSamePenalty) {
  constexpr std::size_t kWatermark = 3;
  testing::ScriptedFleet fleet(testing::example_placement());
  fleet.view.set_backpressure_watermark(kWatermark);
  fleet.view.set_now(50.0);
  fleet.rows[0].state = disk::DiskState::Idle;
  fleet.rows[0].state_since = 0.0;
  fleet.rows[0].last_request_time = 40.0;
  fleet.rows[1].state = disk::DiskState::Idle;
  fleet.rows[1].state_since = 0.0;
  fleet.rows[1].last_request_time = 20.0;
  disk::Request r;
  r.id = 1;
  r.data = 1;
  core::PredictiveParams params;
  params.cost = core::CostParams{1.0, 100.0};
  params.gamma = 0.0;  // isolate the backpressure term
  core::PredictiveCostScheduler sched(params);
  EXPECT_EQ(sched.pick(r, fleet.view), 0u);
  fleet.rows[0].queued_requests = kWatermark - 1;
  EXPECT_EQ(sched.pick(r, fleet.view), 0u);
  fleet.rows[0].queued_requests = kWatermark;
  EXPECT_EQ(sched.pick(r, fleet.view), 1u);
}

// -------------------------------------------- sweeps: emission + threads

runner::ExperimentParams reliability_sweep_params() {
  reliability::ReliabilityConfig rel;
  rel.deadline_seconds = 0.25;
  rel.max_attempts = 3;
  rel.hedge_delay_seconds = 0.05;
  rel.max_queue_depth = 64;
  fault::FaultProfile fp;
  fault::ScriptedFault f;
  f.kind = fault::ScriptedFault::Kind::kTransient;
  f.disk = 0;
  f.time = 5.0;
  f.duration = 10.0;
  fp.script.push_back(f);
  return runner::ExperimentBuilder(runner::Workload::kCello)
      .requests(1500)
      .reliability(rel)
      .fault(fp)
      .build();
}

TEST(ReliabilitySweep, ColumnsAppearOnlyWhenSomeCellEnablesTheTier) {
  const auto base = runner::ExperimentBuilder(runner::Workload::kCello)
                        .requests(800)
                        .build();
  const auto grid = runner::product_grid(
      base, {"static"}, {"off", "on"},
      [](const runner::ExperimentParams& b, const std::string& tag) {
        if (tag == "off") return b;
        reliability::ReliabilityConfig rel;
        rel.deadline_seconds = 0.25;
        return runner::ExperimentBuilder(b).reliability(rel).build();
      });
  runner::SweepOptions opts;
  opts.threads = 1;
  const auto results = runner::SweepRunner(opts).run(grid);
  std::ostringstream mixed;
  runner::emit_cells(mixed, results, runner::EmitFormat::kCsv);
  EXPECT_NE(mixed.str().find("deadline_miss"), std::string::npos);
  EXPECT_NE(mixed.str().find("hedge_wins"), std::string::npos);
  // A tier-free sweep keeps the historical schema byte for byte.
  std::vector<runner::CellResult> off_only = {results[0]};
  off_only[0].index = 0;
  std::ostringstream off;
  runner::emit_cells(off, off_only, runner::EmitFormat::kCsv);
  EXPECT_EQ(off.str().find("deadline_miss"), std::string::npos);
}

TEST(ReliabilitySweep, BitIdenticalAcrossThreadCounts) {
  const auto params = reliability_sweep_params();
  const auto grid = [&] {
    return runner::product_grid(
        params, {"static", "heuristic"}, {"x"},
        [](const runner::ExperimentParams& b, const std::string&) {
          return b;
        });
  };
  std::string reference;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    runner::SweepOptions opts;
    opts.threads = threads;
    auto results = runner::SweepRunner(opts).run(grid());
    for (auto& c : results) {  // run metadata is not part of the identity
      c.wall_seconds = 0.0;
      c.peak_rss_kib = 0;
    }
    std::ostringstream os;
    runner::emit_cells(os, results, runner::EmitFormat::kJson);
    if (reference.empty()) {
      reference = os.str();
      EXPECT_NE(reference.find("\"reliability\""), std::string::npos);
    } else {
      EXPECT_EQ(os.str(), reference) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace eas
