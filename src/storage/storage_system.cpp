#include "storage/storage_system.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <optional>
#include <sstream>
#include <tuple>

#include "cache/block_cache.hpp"
#include "cache/write_back.hpp"
#include "core/basic_schedulers.hpp"
#include "power/oracle.hpp"
#include "reliability/request_state.hpp"
#include "reliability/retry_policy.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace eas::storage {

double RunResult::total_energy() const {
  double e = 0.0;
  for (const auto& s : disk_stats) e += s.total_joules();
  return e;
}

std::uint64_t RunResult::total_spin_ups() const {
  std::uint64_t n = 0;
  for (const auto& s : disk_stats) n += s.spin_ups;
  return n;
}

std::uint64_t RunResult::total_spin_downs() const {
  std::uint64_t n = 0;
  for (const auto& s : disk_stats) n += s.spin_downs;
  return n;
}

double RunResult::mean_response() const { return response_times.mean(); }

double RunResult::always_on_energy(const disk::DiskPowerParams& p) const {
  return static_cast<double>(disk_stats.size()) * p.idle_watts * horizon;
}

double RunResult::normalized_energy(const disk::DiskPowerParams& p) const {
  const double base = always_on_energy(p);
  return base > 0.0 ? total_energy() / base : 0.0;
}

std::vector<double> RunResult::state_time_fractions(
    disk::DiskState state) const {
  std::vector<double> fractions;
  fractions.reserve(disk_stats.size());
  for (const auto& s : disk_stats) {
    const double total = s.total_seconds();
    fractions.push_back(total > 0.0 ? s.seconds(state) / total : 0.0);
  }
  return fractions;
}

std::string RunResult::to_json(bool include_disks) const {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.field("scheduler", scheduler_name);
  w.field("policy", policy_name);
  w.field("horizon_seconds", horizon);
  w.field("num_disks", static_cast<std::uint64_t>(disk_stats.size()));
  w.field("total_requests", total_requests);
  w.field("requests_waited_spinup", requests_waited_spinup);
  w.field("total_energy_joules", total_energy());
  w.field("spin_ups", total_spin_ups());
  w.field("spin_downs", total_spin_downs());

  w.key("response_seconds");
  w.begin_object();
  w.field("count", static_cast<std::uint64_t>(response_times.count()));
  if (!response_times.empty()) {
    constexpr double kQs[] = {0.5, 0.90, 0.99, 1.0};
    double v[std::size(kQs)] = {};
    response_times.quantiles(kQs, v);
    w.field("mean", response_times.mean());
    w.field("p50", v[0]);
    w.field("p90", v[1]);
    w.field("p99", v[2]);
    w.field("max", v[3]);
  }
  w.end_object();

  w.key("fleet_state_seconds");
  w.begin_object();
  for (int s = 0; s < disk::kNumDiskStates; ++s) {
    double secs = 0.0;
    for (const auto& ds : disk_stats) secs += ds.seconds_in_state[s];
    w.field(disk::to_string(static_cast<disk::DiskState>(s)), secs);
  }
  w.end_object();

  // Each tier's object exists only in runs that enabled it.
  for (const TierReport& t : kTierReports) {
    if (!(this->*t.enabled)) continue;
    w.key(t.key);
    w.begin_object();
    for (const TierStat& f : t.fields) {
      std::visit([&](auto v) { w.field(f.name, v); }, f.value(*this));
    }
    w.end_object();
  }

  if (include_disks) {
    w.key("disks");
    w.begin_array();
    for (const auto& ds : disk_stats) {
      w.begin_object();
      w.field("requests_served", ds.requests_served);
      w.field("spin_ups", ds.spin_ups);
      w.field("spin_downs", ds.spin_downs);
      w.field("energy_joules", ds.total_joules());
      w.key("state_seconds");
      w.begin_object();
      for (int s = 0; s < disk::kNumDiskStates; ++s) {
        w.field(disk::to_string(static_cast<disk::DiskState>(s)),
                ds.seconds_in_state[s]);
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return os.str();
}

namespace {

using cache::CacheStats;
using core::WriteOffloadStats;
using fault::FaultStats;
using reliability::ReliabilityStats;

// Table reader: `Get` names a field or accessor of one tier's stats struct,
// and that struct's type picks the RunResult member it reads.
template <typename M, typename Stats>
Stats stats_type(M Stats::*);
template <auto Get>
TierValue stat(const RunResult& r) {
  const auto all = std::tie(r.fault_stats, r.cache_stats, r.reliability_stats,
                            r.write_offload_stats);
  return std::invoke(Get, std::get<const decltype(stats_type(Get))&>(all));
}

}  // namespace

const std::vector<TierReport> kTierReports = {
    {"faults", &RunResult::faults_enabled,
     {{"disk_failures", stat<&FaultStats::disk_failures>},
      {"transient_timeouts", stat<&FaultStats::transient_timeouts>},
      {"latent_sector_events", stat<&FaultStats::latent_sector_events>},
      {"repairs", stat<&FaultStats::repairs>},
      {"unavailable_requests", stat<&FaultStats::unavailable_requests>},
      {"failovers", stat<&FaultStats::failovers>},
      {"rebuilds_completed", stat<&FaultStats::rebuilds_completed>},
      {"rebuild_bytes", stat<&FaultStats::rebuild_bytes>},
      {"rebuild_items_lost", stat<&FaultStats::rebuild_items_lost>},
      {"degraded_seconds", stat<&FaultStats::degraded_seconds>},
      {"degraded_episodes", stat<&FaultStats::degraded_episodes>},
      {"mean_time_in_degraded", stat<&FaultStats::mean_time_in_degraded>}},
     {{"unavailable", stat<&FaultStats::unavailable_requests>},
      {"mean_degraded_s", stat<&FaultStats::mean_time_in_degraded>, 4},
      {"rebuild_bytes", stat<&FaultStats::rebuild_bytes>},
      {"energy_delta_j"}},
     // Both also sit in the fixed prelude; only their values are the tier's.
     {{"failovers", stat<&FaultStats::failovers>},
      {"unavailable_requests", stat<&FaultStats::unavailable_requests>}},
     /*blank_when_off=*/false},
    {"cache", &RunResult::cache_enabled,
     {{"lookups", stat<&CacheStats::lookups>},
      {"hits_clean", stat<&CacheStats::hits_clean>},
      {"hits_dirty", stat<&CacheStats::hits_dirty>},
      {"misses", stat<&CacheStats::misses>},
      {"hit_ratio", stat<&CacheStats::hit_ratio>},
      {"insertions", stat<&CacheStats::insertions>},
      {"evictions", stat<&CacheStats::evictions>},
      {"writes_buffered", stat<&CacheStats::writes_buffered>},
      {"writes_through", stat<&CacheStats::writes_through>},
      {"destage_batches", stat<&CacheStats::destage_batches>},
      {"destaged_blocks", stat<&CacheStats::destaged_blocks>},
      {"destage_piggyback", stat<&CacheStats::destage_piggyback>},
      {"destage_forced", stat<&CacheStats::destage_forced>},
      {"dirty_redirected", stat<&CacheStats::dirty_redirected>},
      {"dirty_lost", stat<&CacheStats::dirty_lost>},
      {"lost_copies_dropped", stat<&CacheStats::lost_copies_dropped>},
      {"memory_energy_joules", stat<&CacheStats::memory_energy_joules>}},
     {{"hit_ratio", stat<&CacheStats::hit_ratio>, 4},
      {"destaged", stat<&CacheStats::destaged_blocks>},
      {"mem_energy_j", stat<&CacheStats::memory_energy_joules>}},
     {{"cache_hits", stat<&CacheStats::hits>},
      {"cache_misses", stat<&CacheStats::misses>},
      {"cache_writes_buffered", stat<&CacheStats::writes_buffered>},
      {"destage_batches", stat<&CacheStats::destage_batches>},
      {"destaged_blocks", stat<&CacheStats::destaged_blocks>},
      {"dirty_occupancy"},
      {"cache_hit_ratio", stat<&CacheStats::hit_ratio>},
      {"cache_memory_energy_joules", stat<&CacheStats::memory_energy_joules>}}},
    {"reliability", &RunResult::reliability_enabled,
     {{"deadline_misses", stat<&ReliabilityStats::deadline_misses>},
      {"retries", stat<&ReliabilityStats::retries>},
      {"hedges_issued", stat<&ReliabilityStats::hedges_issued>},
      {"hedge_wins", stat<&ReliabilityStats::hedge_wins>},
      {"shed", stat<&ReliabilityStats::shed>},
      {"writes_degraded", stat<&ReliabilityStats::writes_degraded>},
      {"abandoned", stat<&ReliabilityStats::abandoned>}},
     {{"deadline_miss", stat<&ReliabilityStats::deadline_misses>},
      {"retries", stat<&ReliabilityStats::retries>},
      {"hedge_wins", stat<&ReliabilityStats::hedge_wins>},
      {"shed", stat<&ReliabilityStats::shed>}},
     {{"deadline_misses", stat<&ReliabilityStats::deadline_misses>},
      {"retries", stat<&ReliabilityStats::retries>},
      {"hedges_issued", stat<&ReliabilityStats::hedges_issued>},
      {"hedge_wins", stat<&ReliabilityStats::hedge_wins>},
      {"shed_requests", stat<&ReliabilityStats::shed>},
      {"abandoned_requests", stat<&ReliabilityStats::abandoned>}}},
    {"write_offload", &RunResult::write_offload_enabled,
     {{"writes_total", stat<&WriteOffloadStats::writes_total>},
      {"writes_home", stat<&WriteOffloadStats::writes_home>},
      {"writes_diverted", stat<&WriteOffloadStats::writes_diverted>},
      {"writes_woke_home", stat<&WriteOffloadStats::writes_woke_home>},
      {"reads_redirected", stat<&WriteOffloadStats::reads_redirected>},
      {"reclaims", stat<&WriteOffloadStats::reclaims>}}},
};

namespace {

/// The live system: Fig 1's component wiring around the event kernel, plus
/// (when the config carries a fault profile) the degraded-mode machinery:
/// queue drain + failover on disk death, unavailability accounting, and a
/// rebuild driver that synthesizes internal re-replication I/O competing
/// with the foreground stream.
class System {
 public:
  System(const SystemConfig& config, const placement::PlacementMap& placement,
         power::PowerPolicy& policy)
      : config_(config),
        placement_(placement),
        policy_(policy),
        status_(placement.num_disks()),
        sched_view_(placement_, config_.power, status_) {
    config_.power.validate();
    config_.perf.validate();
    config_.obs.validate();
    config_.cache.validate();
    config_.reliability.validate();
    result_.faults_enabled = config_.fault.enabled();
    result_.cache_enabled = config_.cache.enabled;
    result_.reliability_enabled = config_.reliability.enabled;
    if (config_.obs.trace.enabled) {
      recorder_ = std::make_shared<obs::TraceRecorder>(config_.obs.trace);
      sim_.set_recorder(recorder_.get());
    }
    if (config_.obs.metrics) {
      metrics_ = std::make_shared<obs::MetricRegistry>();
      // Registered up front in one fixed order so the registry's JSON (and
      // any merge across sweep cells) is schema-stable. Counters are
      // published from the run's own tallies at finish(); only summaries
      // and histograms are fed while the run is live.
      metrics_->counter("requests_completed");
      metrics_->counter("requests_waited_spinup");
      metrics_->counter("failovers");
      metrics_->counter("unavailable_requests");
      metrics_->counter("batches_formed");
      m_batch_size_ = metrics_->summary("batch_size");
      m_queue_depth_ = metrics_->summary("queue_depth");
      m_response_ = metrics_->histogram("response_seconds", 1e-4, 100.0, 10);
      metrics_->counter("spin_ups");
      metrics_->counter("spin_downs");
      metrics_->gauge("total_energy_joules");
      metrics_->gauge("energy_per_request_joules");
      for (int s = 0; s < disk::kNumDiskStates; ++s) {
        metrics_->summary(std::string("disk_seconds_") +
                          disk::to_string(static_cast<disk::DiskState>(s)));
      }
      // Each enabled tier's metrics follow the fixed prelude, so the
      // registry of a run without it stays schema-stable.
      publish_tier_metrics(result_);
    }
    if (config_.cache.enabled) {
      dram_lane_ = sim_.delay_lane(config_.cache.dram_latency_seconds);
      // The tier table registered it in its slot; the run feeds it live.
      if (metrics_) m_dirty_occupancy_ = metrics_->summary("dirty_occupancy");
      if (config_.cache.capacity_blocks > 0) {
        read_cache_.emplace(config_.cache.capacity_blocks,
                            placement.num_data());
      }
      if (config_.cache.dirty_capacity_blocks > 0) {
        wb_ = std::make_unique<cache::WriteBackBuffer>(
            config_.cache.dirty_capacity_blocks, placement.num_disks(),
            placement.num_data());
        // Force-destage thresholds in blocks; high is clamped to >= 1 so a
        // tiny buffer still destages under pressure.
        high_blocks_ = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   config_.cache.high_watermark *
                   static_cast<double>(config_.cache.dirty_capacity_blocks)));
        low_blocks_ = static_cast<std::size_t>(
            config_.cache.low_watermark *
            static_cast<double>(config_.cache.dirty_capacity_blocks));
        destage_lane_ = sim_.delay_lane(config_.cache.destage_deadline_seconds);
        policy_.set_destage_probe(
            [this](DiskId k) { return wb_->pending(k); });
        sched_view_.set_pending_destage(wb_->pending_counts());
      }
    }
    if (config_.reliability.enabled) {
      retry_ = std::make_unique<reliability::RetryPolicy>(
          config_.reliability.backoff_base_seconds,
          config_.reliability.backoff_cap_seconds,
          config_.reliability.jitter_fraction, config_.reliability.seed);
      if (config_.reliability.max_queue_depth > 0) {
        sched_view_.set_backpressure_watermark(std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   config_.reliability.backpressure_watermark *
                   static_cast<double>(config_.reliability.max_queue_depth))));
      }
      if (config_.reliability.deadline_seconds > 0.0) {
        deadline_lane_ = sim_.delay_lane(config_.reliability.deadline_seconds);
      }
      if (config_.reliability.hedge_delay_seconds > 0.0) {
        hedge_lane_ = sim_.delay_lane(config_.reliability.hedge_delay_seconds);
      }
      hedge_pins_.assign(placement.num_disks(), 0);
      policy_.set_hedge_probe([this](DiskId k) { return hedge_pins_[k]; });
    }
    disks_.reserve(placement.num_disks());
    disk_ptrs_.reserve(placement.num_disks());
    for (DiskId k = 0; k < placement.num_disks(); ++k) {
      // Block-sized transfers (every synthetic read, every destage write)
      // complete through one delay lane shared by the fleet.
      disks_.push_back(std::make_unique<disk::Disk>(
          k, sim_, config_.power, config_.perf, config_.initial_state,
          &status_[k], config_.cache.block_bytes));
      disk_ptrs_.push_back(disks_.back().get());
      disks_.back()->set_completion_callback(
          [this](const disk::Completion& c) { on_completion(c); });
      disks_.back()->set_idle_callback([this](disk::Disk& d) {
        // Destage piggyback: the disk just went Idle, i.e. it is spinning
        // with an empty queue — the cheapest possible moment to flush its
        // dirty group. Issuing the batch drives it back to Active, so the
        // policy is not consulted until the next (destage-free) idle.
        if (wb_ != nullptr && wb_->pending(d.id()) > 0 &&
            (view_ == nullptr || view_->accepts_io(d.id()))) {
          destage_batch(d.id(), cache::DestageReason::kPiggyback);
          return;
        }
        policy_.on_disk_idle(sim_, d);
      });
    }
    if (config_.fault.enabled()) {
      view_ = std::make_unique<fault::FailureView>(placement.num_disks());
      rebuilds_.resize(placement.num_disks());
      injector_ = std::make_unique<fault::FaultInjector>(sim_, *view_,
                                                         config_.fault);
      injector_->set_on_disk_down(
          [this](DiskId k, fault::ScriptedFault::Kind kind) {
            on_disk_down(k, kind);
          });
      injector_->set_on_disk_back([this](DiskId k, bool needs_rebuild) {
        EAS_OBS(sim_.recorder(),
                record(sim_.now(), obs::Ev::kDiskBack, k, needs_rebuild));
        if (needs_rebuild) start_rebuild(k);
      });
      injector_->set_on_blocks_lost(
          [this](DiskId k, DataId lo, DataId hi, double scrub_delay) {
            if (scrub_delay > 0.0) {
              sim_.schedule_in(scrub_delay,
                               [this, k, lo, hi] { start_scrub(k, lo, hi); });
            }
          });
      policy_.set_failure_view(view_.get());
      sched_view_.set_failure_view(view_.get());
    }
  }

  /// The schedulers' view of the live disks, stamped with the clock.
  const core::SystemView& sched_view() {
    sched_view_.set_now(sim_.now());
    return sched_view_;
  }

  sim::Simulator& simulator() { return sim_; }

  /// Sizes the response store for `n` completions; exactly-once accounting
  /// completes each request at most once, so a run's trace size bounds it.
  void reserve_responses(std::size_t n) { responses_.reserve(n); }

  /// Called by the run_* drivers when a request enters the system (before
  /// any scheduling decision).
  void note_arrival(const disk::Request& r) {
    EAS_OBS(sim_.recorder(),
            request_event(sim_.now(), obs::Ev::kArrive, r.id, r.data));
  }

  /// Called by the batch driver each time a non-empty batch is assigned.
  void note_batch(std::size_t size) {
    EAS_OBS(sim_.recorder(),
            batch_formed(sim_.now(), batch_seq_, size));
    ++batch_seq_;
    if (m_batch_size_ != nullptr) {
      m_batch_size_->add(static_cast<double>(size));
    }
  }

  /// Cache tier front-end, consulted by every driver after note_arrival and
  /// before any scheduling decision. Returns true when the tier absorbed
  /// the request (it completes at DRAM latency and must not be routed);
  /// false sends it down the ordinary disk path. With the tier disabled
  /// this is a single branch and the disk path is untouched — bit-identical
  /// to pre-cache behavior.
  bool cache_absorb(const disk::Request& r) {
    if (!config_.cache.enabled) return false;
    if (r.is_read) return absorb_read(r);
    return absorb_write(r);
  }

  /// `horizon` bounds fault injection (typically trace.end_time()): no
  /// failure or repair event is scheduled past it, so the run terminates.
  void start(double horizon) {
    if (injector_) injector_->start(horizon);
    policy_.on_run_start(sim_, disk_ptrs_);
  }

  /// Fault-aware dispatch of a *foreground* request: verifies the
  /// scheduler's pick against the live failure view, fails over to the
  /// first readable replica when the pick is stale (the disk died after the
  /// decision), and counts the request unavailable when no live replica of
  /// its data remains. kInvalidDisk from the scheduler means it already
  /// established unavailability. Fault-free runs fall straight through.
  void route(const disk::Request& r, DiskId k) {
    if (view_ == nullptr) {
      dispatch_foreground(r, k);
      return;
    }
    if (k != kInvalidDisk && !view_->replica_readable(r.data, k)) {
      const DiskId alt = view_->first_live(placement_, r.data);
      if (alt != kInvalidDisk) note_failover();
      k = alt;
    } else if (k != kInvalidDisk && view_->degraded() &&
               first_replica(r.data, kInvalidDisk, [&](DiskId loc) {
                 return !view_->replica_readable(r.data, loc);
               }) != kInvalidDisk) {
      // The degraded-aware schedulers route around dead replicas before the
      // pick reaches us; that is still a failover event — the request was
      // served from a fault-shrunk candidate set.
      note_failover();
    }
    if (k == kInvalidDisk) {
      note_unavailable();
      return;
    }
    EAS_AUDIT_MSG(view_->replica_readable(r.data, k),
                  "foreground request for data " << r.data
                                                 << " routed to unreadable disk "
                                                 << k);
    dispatch_foreground(r, k);
  }

  /// Foreground tail of route(): with the reliability tier disabled this is
  /// exactly dispatch(); enabled, the request gets an in-flight entry and
  /// goes through attempt() (admission control, deadline, hedge arming).
  void dispatch_foreground(const disk::Request& r, DiskId k) {
    if (!config_.reliability.enabled) {
      dispatch(r, k);
      return;
    }
    attempt(acquire_inflight(r), k);
  }

  /// Routes a request to disk k, notifying the power policy first so stale
  /// spin-down timers are cancelled before the disk sees the work.
  void dispatch(disk::Request r, DiskId k) {
    EAS_REQUIRE_MSG(placement_.stores(r.data, k),
                  "scheduler sent data " << r.data << " to disk " << k
                                         << " which does not store it");
    dispatch_unchecked(r, k);
  }

  /// Like dispatch() but without the placement-membership check: write
  /// off-loading legitimately parks blocks on foreign disks.
  void dispatch_unchecked(disk::Request r, DiskId k) {
    EAS_REQUIRE_MSG(k < disks_.size(), "dispatch to unknown disk " << k);
    // A dead disk must never receive a request — foreground or rebuild.
    // route() and the rebuild driver both filter on the view, so tripping
    // this means a caller bypassed them.
    EAS_REQUIRE_MSG(view_ == nullptr || view_->accepts_io(k),
                    "dispatch to failed disk " << k);
    r.dispatch_time = sim_.now();
    EAS_OBS(sim_.recorder(),
            request_event(sim_.now(), obs::Ev::kDispatch, r.id, k, 0,
                          static_cast<std::uint16_t>(r.kind)));
    policy_.on_disk_activity(sim_, *disks_[k]);
    disks_[k]->submit(r);
    // Depth including the new request: the backlog this dispatch joined.
    if (m_queue_depth_ != nullptr) {
      m_queue_depth_->add(static_cast<double>(disks_[k]->queued_requests()));
    }
  }

  /// Drains the event queue, finalizes accounting, and harvests the result.
  RunResult finish(const std::string& scheduler_name) {
    sim_.run();
    const double horizon = std::max(sim_.now(), last_completion_);
    RunResult r = std::move(result_);
    r.scheduler_name = scheduler_name;
    r.policy_name = policy_.name();
    r.horizon = horizon;
    r.disk_stats.reserve(disks_.size());
    for (auto& d : disks_) {
      d->finalize(horizon);
      r.disk_stats.push_back(d->stats());
    }
    r.response_times = std::move(responses_);
    r.total_requests = completed_;
    r.requests_waited_spinup = waited_spinup_;
    if (injector_) {
      const auto [secs, episodes] = view_->finalize_degraded(horizon);
      stats().degraded_seconds = secs;
      stats().degraded_episodes = episodes;
      r.fault_stats = injector_->stats();
    }
    if (config_.cache.enabled) {
      // The tier's DRAM/NVRAM is powered for the whole run regardless of
      // traffic; charging it here keeps the energy story honest.
      cache_stats_.memory_energy_joules =
          config_.cache.memory_energy_joules(horizon);
      r.cache_stats = cache_stats_;
    }
    if (config_.reliability.enabled) r.reliability_stats = rel_stats_;
    if (metrics_ != nullptr) publish_metrics(r);
    r.trace_recorder = recorder_;
    r.metrics = metrics_;
    return r;
  }

 private:
  /// One in-progress re-replication: a serial copy pipeline onto `target`
  /// (scrub == false: whole-disk rebuild after a replacement; scrub == true:
  /// latent-sector repair on a live disk). Items move one at a time —
  /// internal read on the first surviving replica, then internal write on
  /// the target — so rebuild traffic interleaves with, rather than starves,
  /// the foreground stream.
  struct RebuildState {
    std::vector<DataId> items;
    std::size_t next = 0;
    std::uint32_t epoch = 0;   ///< guards against stale completions
    bool active = false;       ///< a rebuild or scrub onto this disk runs
    bool scrub = false;
    bool writing = false;      ///< current item's phase
  };

  /// End-of-run metrics: every counter is published from the tally the run
  /// already keeps (so each fact has one home), then the per-disk
  /// state-time summaries and the energy gauges. Disks are folded in id
  /// order, so the Welford state is a pure function of the run.
  void publish_metrics(const RunResult& r) {
    const auto set = [this](const char* name, std::uint64_t value) {
      *metrics_->counter(name) = value;
    };
    set("requests_completed", completed_);
    set("requests_waited_spinup", waited_spinup_);
    set("batches_formed", batch_seq_);
    set("spin_ups", r.total_spin_ups());
    set("spin_downs", r.total_spin_downs());
    publish_tier_metrics(r);
    for (int s = 0; s < disk::kNumDiskStates; ++s) {
      stats::SummaryStats* per_state = metrics_->summary(
          std::string("disk_seconds_") +
          disk::to_string(static_cast<disk::DiskState>(s)));
      for (const auto& ds : r.disk_stats) {
        per_state->add(ds.seconds_in_state[s]);
      }
    }
    *metrics_->gauge("total_energy_joules") = r.total_energy();
    *metrics_->gauge("energy_per_request_joules") =
        completed_ > 0 ? r.total_energy() / static_cast<double>(completed_)
                       : 0.0;
  }

  /// Registers, in table order, the metrics of every tier `r` enables and
  /// publishes their values; at construction those are still zero.
  void publish_tier_metrics(const RunResult& r) {
    for (const TierReport& t : kTierReports) {
      if (!(r.*t.enabled)) continue;
      for (const TierStat& m : t.metrics) {
        if (m.value == nullptr) {
          metrics_->summary(m.name);  // fed live
        } else if (const TierValue v = m.value(r); v.index() == 0) {  // count
          *metrics_->counter(m.name) = std::get<std::uint64_t>(v);
        } else {
          *metrics_->gauge(m.name) = std::get<double>(v);
        }
      }
    }
  }

  // ---- replica selection ----

  /// First replica location of `b`, in placement order, other than `skip`
  /// that satisfies `ok`; kInvalidDisk when none does.
  template <typename Ok>
  DiskId first_replica(DataId b, DiskId skip, Ok ok) const {
    for (const DiskId loc : placement_.locations(b)) {
      if (loc != skip && ok(loc)) return loc;
    }
    return kInvalidDisk;
  }
  /// First replica of `b` other than `skip` whose copy can serve a read
  /// (any replica, without a failure view).
  DiskId first_readable(DataId b, DiskId skip) const {
    return first_replica(b, skip, [this, b](DiskId k) {
      return view_ == nullptr || view_->replica_readable(b, k);
    });
  }
  /// First replica of `b` other than `skip` whose disk accepts I/O (any
  /// replica, without a failure view).
  DiskId first_accepting(DataId b, DiskId skip) const {
    return first_replica(b, skip, [this](DiskId k) {
      return view_ == nullptr || view_->accepts_io(k);
    });
  }

  // ---- cache tier ----

  bool absorb_read(const disk::Request& r) {
    ++cache_stats_.lookups;
    // Dirty hit: the buffer holds the authoritative copy (the disk's is
    // stale until destage), so it always serves — even degraded.
    if (wb_ != nullptr && wb_->contains(r.data)) {
      ++cache_stats_.hits_dirty;
      EAS_OBS(sim_.recorder(), cache_event(sim_.now(), obs::Ev::kCacheHit,
                                           r.id, r.data, /*dirty=*/1));
      complete_from_cache(r);
      return true;
    }
    if (read_cache_ && read_cache_->contains(r.data)) {
      // The cache must never mask a lost block: when the last disk replica
      // is gone, drop the cached copy and let the ordinary path count the
      // request unavailable — exactly as it would without a cache.
      if (view_ != nullptr && view_->degraded() &&
          view_->first_live(placement_, r.data) == kInvalidDisk) {
        read_cache_->erase(r.data);
        ++cache_stats_.lost_copies_dropped;
        ++cache_stats_.misses;
        return false;
      }
      read_cache_->lookup(r.data);  // promote
      ++cache_stats_.hits_clean;
      EAS_OBS(sim_.recorder(), cache_event(sim_.now(), obs::Ev::kCacheHit,
                                           r.id, r.data, /*dirty=*/0));
      complete_from_cache(r);
      return true;
    }
    ++cache_stats_.misses;
    EAS_OBS(sim_.recorder(),
            cache_event(sim_.now(), obs::Ev::kCacheMiss, r.id, r.data));
    return false;
  }

  bool absorb_write(const disk::Request& r) {
    // Write-through fallback: no buffer configured, or the buffer is full.
    if (wb_ == nullptr) {
      ++cache_stats_.writes_through;
      return false;
    }
    // Home = first replica location accepting I/O; deterministic, and the
    // destage lands on a disk that stores the block by construction. All
    // replicas dead => the write is unavailable (cache must not hide it).
    const DiskId home = first_accepting(r.data, kInvalidDisk);
    if (home == kInvalidDisk) {
      note_unavailable();
      return true;  // absorbed: there is no disk to route it to
    }
    // A block not currently pending (new, or reactivated from in-flight)
    // gets a fresh admission time from put() and needs its own deadline.
    const bool fresh = !wb_->is_pending(r.data);
    if (!wb_->put(r.data, home, sim_.now())) {
      ++cache_stats_.writes_through;
      return false;
    }
    ++cache_stats_.writes_buffered;
    if (m_dirty_occupancy_ != nullptr) {
      m_dirty_occupancy_->add(static_cast<double>(wb_->size()));
    }
    EAS_OBS(sim_.recorder(), cache_event(sim_.now(), obs::Ev::kWriteBuffered,
                                         r.id, r.data, home));
    // The buffered copy supersedes any clean cached one.
    if (read_cache_) read_cache_->erase(r.data);
    complete_from_cache(r);
    if (fresh) arm_destage_deadline(r.data);
    // Opportunistic flush: the home disk is spinning with an empty queue,
    // so the write-back costs no extra spin-up.
    if (disks_[home]->state() == disk::DiskState::Idle &&
        disks_[home]->queued_requests() == 0) {
      destage_batch(home, cache::DestageReason::kPiggyback);
    }
    if (wb_->size() >= high_blocks_) force_destage_to_low();
    return true;
  }

  /// Deadline backstop for block `b`, admitted to the buffer now. The
  /// admission time doubles as an incarnation token: if the block destages
  /// and is re-admitted, the stale event no-ops and the fresh admission
  /// armed its own.
  void arm_destage_deadline(DataId b) {
    const double admit = sim_.now();
    sim_.schedule_on(destage_lane_, [this, b, admit] {
      if (wb_ == nullptr || !wb_->is_pending(b)) return;
      if (wb_->buffered_at(b) != admit) return;
      destage_batch(wb_->home_of(b), cache::DestageReason::kDeadline);
    });
  }

  /// Completes an absorbed request at DRAM latency: it never touches a
  /// disk, but it is a foreground completion like any other.
  void complete_from_cache(const disk::Request& r) {
    sim_.schedule_on(dram_lane_, [this, arrival = r.arrival_time] {
      const double t = sim_.now();
      last_completion_ = std::max(last_completion_, t);
      count_completion(t - arrival);
    });
  }

  /// Tallies one foreground completion with its response time.
  void count_completion(double response_seconds) {
    ++completed_;
    responses_.add(response_seconds);
    if (m_response_ != nullptr) m_response_->add(response_seconds);
  }

  void insert_clean(DataId b) {
    ++cache_stats_.insertions;
    if (read_cache_->insert(b) != kInvalidData) ++cache_stats_.evictions;
  }

  /// Issues one batch (<= max_destage_batch) of disk k's pending dirty
  /// blocks as internal writes.
  void destage_batch(DiskId k, cache::DestageReason reason) {
    EAS_ASSERT(wb_ != nullptr);
    EAS_ASSERT(view_ == nullptr || view_->accepts_io(k));
    destage_buf_.clear();
    // Block i of the batch is issued under destage id destage_seq_ + i,
    // the ids the loop below gives the writes.
    const std::size_t n = wb_->begin_destage(
        k, config_.cache.max_destage_batch, destage_seq_, destage_buf_);
    if (n == 0) return;
    ++cache_stats_.destage_batches;
    cache_stats_.destaged_blocks += n;
    if (reason == cache::DestageReason::kPiggyback) {
      ++cache_stats_.destage_piggyback;
    } else {
      ++cache_stats_.destage_forced;
    }
    EAS_OBS(sim_.recorder(),
            cache_event(sim_.now(), obs::Ev::kDestageBegin, k, n,
                        static_cast<std::uint32_t>(reason)));
    for (const DataId b : destage_buf_) {
      disk::Request w;
      w.id = destage_seq_++;
      w.kind = disk::RequestKind::kDestage;
      w.data = b;
      w.size_bytes = config_.cache.block_bytes;
      w.arrival_time = sim_.now();
      w.is_read = false;
      dispatch_unchecked(w, k);
    }
  }

  /// Watermark pressure: drive the post-completion occupancy down to the
  /// low watermark, largest pending group first (lowest disk id ties).
  /// Occupancy counts in-flight blocks too, so the loop bounds what will
  /// *remain* after the issued writes land rather than waiting on them.
  void force_destage_to_low() {
    while (wb_->pending_total() > low_blocks_) {
      DiskId pick = kInvalidDisk;
      std::uint64_t best = 0;
      for (DiskId k = 0; k < static_cast<DiskId>(wb_->num_disks()); ++k) {
        if (wb_->pending(k) > best) {
          best = wb_->pending(k);
          pick = k;
        }
      }
      if (pick == kInvalidDisk) break;
      destage_batch(pick, cache::DestageReason::kWatermark);
    }
  }

  void on_destage_complete(const disk::Completion& c) {
    const DataId b = c.request.data;
    // Stale after a disk death drained and re-homed the block, or after a
    // re-put superseded this write (the block may be in flight again under
    // a newer destage id, which alone may retire the slot).
    if (wb_ == nullptr || !wb_->complete(b, c.request.id)) return;
    EAS_OBS(sim_.recorder(), cache_event(sim_.now(), obs::Ev::kDestageDone,
                                         c.disk, b));
    if (m_dirty_occupancy_ != nullptr) {
      m_dirty_occupancy_->add(static_cast<double>(wb_->size()));
    }
    // The block is clean on disk now and demonstrably warm: admit it.
    if (read_cache_) insert_clean(b);
  }

  // ---- reliability tier ----

  /// Per-request in-flight entry: the original request (arrival time and
  /// all, with `request.slot` naming this entry) plus its reliability
  /// state. Lives from dispatch_foreground until the first completion,
  /// shed, or abandonment; a free entry has request.id == kInvalidRequest.
  struct InFlight {
    disk::Request request;
    reliability::RequestState st;
  };

  /// Takes a free in-flight slot for `r` (the most recently released one
  /// first) and fills it. The table grows only past its peak live count.
  std::uint32_t acquire_inflight(const disk::Request& r) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(inflight_.size());
      inflight_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    InFlight& f = inflight_[slot];
    f.request = r;
    f.request.slot = slot;
    f.st = {};
    return slot;
  }

  /// Frees `slot`; timers and copies that still name it go stale.
  void release_inflight(std::uint32_t slot) {
    inflight_[slot].request.id = kInvalidRequest;
    free_slots_.push_back(slot);
  }

  /// The live entry of request `id` in `slot`, or null when the request
  /// was closed since (a stale timer, a late completion, a shed victim
  /// already retired) — the slot may hold another request by then.
  InFlight* live_entry(std::uint32_t slot, RequestId id) {
    EAS_ASSERT(slot < inflight_.size());
    InFlight& f = inflight_[slot];
    return f.request.id == id ? &f : nullptr;
  }

  /// Releases one planned-hedge pin on `k`. If that was the last pin and
  /// the disk sits idle with nothing queued, the power policy is re-kicked
  /// — it skipped arming its spin-down timer while the pin was up, and no
  /// other idle notification would ever come.
  void release_hedge_pin(DiskId k) {
    EAS_ASSERT(hedge_pins_[k] > 0);
    --hedge_pins_[k];
    if (hedge_pins_[k] == 0 && disks_[k]->state() == disk::DiskState::Idle &&
        disks_[k]->queued_requests() == 0) {
      policy_.on_disk_idle(sim_, *disks_[k]);
    }
  }

  /// Stops the entry's hedge: cancels the hedge timer, releases the
  /// planned-hedge pin, and pulls a still-queued hedge copy back from its
  /// disk (no-op when it already completed or its disk drained).
  void drop_hedge(InFlight& f) {
    sim_.cancel(f.st.hedge_timer);
    f.st.hedge_timer = {};
    if (f.st.hedge_planned != kInvalidDisk) {
      release_hedge_pin(f.st.hedge_planned);
      f.st.hedge_planned = kInvalidDisk;
    }
    if (f.st.hedge_disk != kInvalidDisk) {
      disks_[f.st.hedge_disk]->remove_pending(f.request.id,
                                              disk::RequestKind::kHedge);
      f.st.hedge_disk = kInvalidDisk;
    }
  }

  /// Cancels the deadline, drops the hedge and frees the slot. Every path
  /// that retires a request — completion, shed, abandonment — funnels
  /// through here, so no closed request can leave a stray copy in a queue.
  void close_entry(std::uint32_t slot) {
    InFlight& f = inflight_[slot];
    sim_.cancel(f.st.deadline);
    f.st.deadline = {};
    drop_hedge(f);
    release_inflight(slot);
  }

  /// Admission control dropped the request at disk `k`: counted, traced,
  /// closed.
  void shed(std::uint32_t slot, DiskId k) {
    ++rel_stats_.shed;
    EAS_OBS(sim_.recorder(),
            reliability_event(sim_.now(), obs::Ev::kShed,
                              inflight_[slot].request.id, k));
    close_entry(slot);
  }

  /// The request is given up at disk `k` — its attempt budget is spent, or
  /// no live replica is left — and counted in exactly one bucket (abandoned
  /// or unavailable), traced, closed.
  void abandon(std::uint32_t slot, DiskId k, bool unavailable = false) {
    if (unavailable) {
      note_unavailable();
    } else {
      ++rel_stats_.abandoned;
    }
    EAS_OBS(sim_.recorder(),
            reliability_event(sim_.now(), obs::Ev::kAbandon,
                              inflight_[slot].request.id, k,
                              inflight_[slot].st.attempts));
    close_entry(slot);
  }

  /// Admission-control eviction of one queued entry on disk `k` to make
  /// room. A hedge-copy victim just loses its copy (the primary races on);
  /// a primary victim is shed outright — both its copies leave the queues
  /// and the request is dropped, counted, and traced.
  void shed_victim(const disk::Request victim, DiskId k) {
    [[maybe_unused]] const bool removed =
        disks_[k]->remove_pending(victim.id, victim.kind);
    EAS_ASSERT_MSG(removed, "shed victim vanished from the queue");
    InFlight* v = live_entry(victim.slot, victim.id);
    if (v == nullptr) return;
    if (victim.kind == disk::RequestKind::kHedge) {
      v->st.hedge_disk = kInvalidDisk;
      return;
    }
    shed(victim.slot, k);
  }

  /// One dispatch attempt of the entry in `slot` onto disk `k`: admission
  /// control first (bounded queue: writes degrade to write-through and are
  /// always admitted; reads shed the oldest queued read — or themselves
  /// when the backlog is all writes), then attempt accounting, deadline and
  /// hedge arming, and the actual dispatch. The attempt counter is the
  /// *shared* budget: deadline retries and fault failovers both spend from
  /// it, so a fault during a retry can never double-dispatch past the cap.
  /// The table's deque never moves an entry, so `f` survives the victim's
  /// release.
  void attempt(std::uint32_t slot, DiskId k) {
    EAS_ASSERT(k != kInvalidDisk);
    InFlight& f = inflight_[slot];
    const RequestId id = f.request.id;
    const std::uint32_t cap = config_.reliability.max_queue_depth;
    if (cap > 0 && disks_[k]->queued_requests() >= cap) {
      if (!f.request.is_read) {
        // Write-through degradation: bounded queues never drop writes, the
        // overflow is admitted and counted so the operator sees it.
        ++rel_stats_.writes_degraded;
      } else if (const disk::Request* victim =
                     disks_[k]->oldest_queued_read()) {
        shed_victim(*victim, k);
      } else {
        // The backlog is writes/in-service work: shed the incoming read.
        shed(slot, k);
        return;
      }
    }
    ++f.st.attempts;
    f.st.primary = k;
    f.st.retry_scheduled = false;
    if (config_.reliability.deadline_seconds > 0.0) {
      sim_.cancel(f.st.deadline);
      f.st.deadline = sim_.schedule_on(
          deadline_lane_, [this, slot, id] { on_deadline(slot, id); });
    }
    arm_hedge(slot, f, k);
    dispatch(f.request, k);
  }

  /// Plans a hedge for a read attempt on `k`: pins the first alternate live
  /// replica (so the power policy keeps it warm through the delay window)
  /// and arms the hedge timer. Re-attempts release the previous plan first.
  void arm_hedge(std::uint32_t slot, InFlight& f, DiskId k) {
    if (config_.reliability.hedge_delay_seconds <= 0.0 || !f.request.is_read) {
      return;
    }
    sim_.cancel(f.st.hedge_timer);
    f.st.hedge_timer = {};
    if (f.st.hedge_planned != kInvalidDisk) {
      release_hedge_pin(f.st.hedge_planned);
      f.st.hedge_planned = kInvalidDisk;
    }
    if (f.st.hedge_disk != kInvalidDisk) return;  // a copy is already racing
    const DiskId alt = first_readable(f.request.data, k);
    if (alt == kInvalidDisk) return;  // un-replicated (or all alternates dead)
    ++hedge_pins_[alt];
    f.st.hedge_planned = alt;
    f.st.hedge_timer = sim_.schedule_on(
        hedge_lane_,
        [this, slot, id = f.request.id] { on_hedge_fire(slot, id); });
  }

  /// Hedge timer fired: the primary attempt is still in flight after the
  /// hedge delay, so dispatch a second copy to the planned alternate (or a
  /// repick when it died during the window). First completion wins; the
  /// loser is cancelled in on_completion / shed_victim.
  void on_hedge_fire(std::uint32_t slot, RequestId id) {
    InFlight* live = live_entry(slot, id);
    if (live == nullptr) return;  // stale (entry closed under the timer)
    InFlight& f = *live;
    f.st.hedge_timer = {};
    DiskId target = f.st.hedge_planned;
    EAS_ASSERT(target != kInvalidDisk);
    f.st.hedge_planned = kInvalidDisk;
    if (f.st.retry_scheduled) {
      // Between attempts (backoff wait): nothing is in flight to hedge. The
      // next attempt re-arms its own hedge.
      release_hedge_pin(target);
      return;
    }
    // Dispatching to it this instant — or it died during the window, where
    // no policy kick is needed either.
    --hedge_pins_[target];
    if (view_ != nullptr && !view_->replica_readable(f.request.data, target)) {
      target = first_readable(f.request.data, f.st.primary);
      if (target == kInvalidDisk) return;  // no live alternate left
    }
    const std::uint32_t cap = config_.reliability.max_queue_depth;
    if (cap > 0 && disks_[target]->queued_requests() >= cap) {
      return;  // full queue: skip the hedge rather than shed for a copy
    }
    ++rel_stats_.hedges_issued;
    EAS_OBS(sim_.recorder(),
            reliability_event(sim_.now(), obs::Ev::kHedgeIssue, id, target));
    f.st.hedge_disk = target;
    disk::Request copy = f.request;  // carries the slot
    copy.kind = disk::RequestKind::kHedge;
    dispatch(copy, target);
  }

  /// Per-attempt deadline fired: pull the attempt's queued copies back (an
  /// in-service transfer completes regardless and simply wins the race if
  /// it lands before the retry), then retry with deterministic backoff or
  /// abandon once the budget is spent.
  void on_deadline(std::uint32_t slot, RequestId id) {
    InFlight* live = live_entry(slot, id);
    if (live == nullptr) return;  // stale (entry closed under the timer)
    InFlight& f = *live;
    f.st.deadline = {};
    ++rel_stats_.deadline_misses;
    EAS_OBS(sim_.recorder(),
            reliability_event(sim_.now(), obs::Ev::kDeadlineMiss, id,
                              f.st.primary, f.st.attempts));
    disks_[f.st.primary]->remove_pending(id, disk::RequestKind::kForeground);
    drop_hedge(f);
    if (f.st.attempts >= config_.reliability.max_attempts) {
      abandon(slot, f.st.primary);
      return;
    }
    f.st.retry_scheduled = true;
    // Deterministic jittered backoff: a pure function of (seed, id,
    // attempt), so the retry timeline is bit-identical across EAS_THREADS
    // and repeated runs.
    sim_.schedule_in(retry_->backoff_delay(id, f.st.attempts + 1),
                     [this, slot, id] { on_retry(slot, id); });
  }

  /// Backoff elapsed: re-dispatch to the first live replica, preferring one
  /// that is not the attempt that just timed out.
  void on_retry(std::uint32_t slot, RequestId id) {
    InFlight* live = live_entry(slot, id);
    if (live == nullptr) return;  // a late completion won the race
    InFlight& f = *live;
    DiskId pick = first_readable(f.request.data, f.st.primary);
    if (pick == kInvalidDisk &&
        (view_ == nullptr ||
         view_->replica_readable(f.request.data, f.st.primary))) {
      pick = f.st.primary;  // the timed-out replica is the only live one
    }
    if (pick == kInvalidDisk) {
      abandon(slot, f.st.primary, /*unavailable=*/true);
      return;
    }
    ++rel_stats_.retries;
    EAS_OBS(sim_.recorder(),
            reliability_event(sim_.now(), obs::Ev::kRetry, id, pick,
                              f.st.attempts + 1));
    attempt(slot, pick);
  }

  fault::FaultStats& stats() { return injector_->stats(); }

  void note_failover() { ++stats().failovers; }
  void note_unavailable() { ++stats().unavailable_requests; }

  void on_completion(const disk::Completion& c) {
    last_completion_ = std::max(last_completion_, c.completion_time);
    switch (c.request.kind) {
      case disk::RequestKind::kDestage:
        on_destage_complete(c);
        return;
      case disk::RequestKind::kRebuild:
        on_rebuild_complete(c);
        return;
      case disk::RequestKind::kForeground:
      case disk::RequestKind::kHedge:
        break;
    }
    if (config_.reliability.enabled) {
      InFlight* f = live_entry(c.request.slot, c.request.id);
      if (f == nullptr) {
        // Entry already closed: a shed/abandoned request's in-service copy
        // landing late, or the race's loser completing after the winner.
        // Not counted — the request's fate was already accounted.
        return;
      }
      if (c.request.kind == disk::RequestKind::kHedge) {
        ++rel_stats_.hedge_wins;
        EAS_OBS(sim_.recorder(), reliability_event(sim_.now(),
                                                   obs::Ev::kHedgeWin,
                                                   c.request.id, c.disk));
        disks_[f->st.primary]->remove_pending(c.request.id,
                                              disk::RequestKind::kForeground);
      }
      close_entry(c.request.slot);  // cancels timers, pulls back a racing
                                    // hedge copy
    }
    if (c.waited_for_spinup) ++waited_spinup_;
    count_completion(c.response_seconds());
    EAS_OBS(sim_.recorder(),
            request_event(sim_.now(), obs::Ev::kComplete, c.request.id, c.disk,
                          0, static_cast<std::uint16_t>(c.request.kind)));
    // Miss path populates the read cache: the block was just fetched from
    // disk and is the most-recently-used thing in the system.
    if (read_cache_ && c.request.is_read) {
      insert_clean(c.request.data);
    }
  }

  /// Fail-stop/transient handler: abort any rebuild targeting the disk,
  /// drain its queue, and fail the drained work over to live replicas.
  void on_disk_down(DiskId k, fault::ScriptedFault::Kind /*kind*/) {
    EAS_OBS(sim_.recorder(), record(sim_.now(), obs::Ev::kDiskDown, k));
    if (rebuilds_[k].active) {
      // The disk being repaired died again (scrub target): abort. Items not
      // yet restored stay in the lost set; a later full rebuild covers them.
      rebuilds_[k].active = false;
      view_->set_rebuild_pin(sim_.now(), k, false);
    }
    std::vector<disk::Request> drained;  // a disk failure is rare: no scratch
    disks_[k]->take_pending(drained);
    for (const disk::Request& r : drained) {
      switch (r.kind) {
        case disk::RequestKind::kDestage:
          // Queued destage writes die with the disk; their blocks are still
          // safe in the buffer and get re-homed by the drain below.
          continue;
        case disk::RequestKind::kRebuild:
          // A write onto the dying disk is dropped. A rebuild's source read
          // queued here retries from another surviving replica (or counts
          // the item lost).
          if (r.target == k) continue;
          if (RebuildState& rs = rebuilds_[r.target];
              rs.active && rs.epoch == r.id) {
            rs.writing = false;
            advance_rebuild(r.target);
          }
          continue;
        case disk::RequestKind::kForeground:
        case disk::RequestKind::kHedge:
          break;
      }
      if (config_.reliability.enabled) {
        // Failover shares the reliability attempt budget: re-dispatch goes
        // through attempt() so a request bouncing between a dying disk and
        // its deadline can never exceed max_attempts or double-dispatch.
        InFlight* f = live_entry(r.slot, r.id);
        if (f == nullptr) continue;  // already closed elsewhere
        if (r.kind == disk::RequestKind::kHedge) {
          // The hedge copy died with the disk; the primary races on alone.
          f->st.hedge_disk = kInvalidDisk;
          continue;
        }
        if (f->st.attempts >= config_.reliability.max_attempts) {
          abandon(r.slot, k);
          continue;
        }
        const DiskId alt = view_->first_live(placement_, r.data);
        if (alt == kInvalidDisk) {
          abandon(r.slot, k, /*unavailable=*/true);
          continue;
        }
        note_failover();
        attempt(r.slot, alt);
        continue;
      }
      const DiskId alt = view_->first_live(placement_, r.data);
      if (alt == kInvalidDisk) {
        note_unavailable();
      } else {
        note_failover();
        dispatch(r, alt);  // arrival_time kept: failover delay is visible
      }
    }
    // Dirty blocks homed on the dead disk are still safe in NVRAM, but
    // their destage target is gone: re-home each onto its first replica
    // location still accepting I/O (a forced redirect, counted as a
    // failover), or count the data unavailable when none is left. The
    // cache never masks a lost block.
    if (wb_ != nullptr) {
      drain_buf_.clear();
      wb_->drain(k, drain_buf_);
      for (const DataId b : drain_buf_) {
        const DiskId new_home = first_accepting(b, k);
        if (new_home == kInvalidDisk) {
          ++cache_stats_.dirty_lost;
          note_unavailable();
          continue;
        }
        const bool ok = wb_->put(b, new_home, sim_.now());
        EAS_ENSURE_MSG(ok, "re-homed dirty block " << b << " no longer fits");
        ++cache_stats_.dirty_redirected;
        note_failover();
        arm_destage_deadline(b);
      }
    }
  }

  /// A replacement disk came online: replay every block placed on it from
  /// surviving replicas.
  void start_rebuild(DiskId k) {
    EAS_REQUIRE_MSG(view_->health(k) == fault::DiskHealth::kRebuilding,
                    "rebuild target " << k << " is not in rebuilding state");
    RebuildState& st = begin_rebuild(k, /*scrub=*/false);
    for (DataId b = 0; b < placement_.num_data(); ++b) {
      if (placement_.stores(b, k)) st.items.push_back(b);
    }
    view_->set_rebuild_pin(sim_.now(), k, true);
    advance_rebuild(k);
  }

  /// Scrub detected latent sector errors: re-replicate the lost blocks onto
  /// the (still live) disk that holds them.
  void start_scrub(DiskId k, DataId lo, DataId hi) {
    if (!view_->disk_up(k)) return;       // disk died before the scrub ran
    if (rebuilds_[k].active) return;      // already repairing this disk
    RebuildState& st = begin_rebuild(k, /*scrub=*/true);
    for (DataId b = lo; b <= hi && b != kInvalidData; ++b) {
      if (placement_.stores(b, k) && !view_->replica_readable(b, k)) {
        st.items.push_back(b);
      }
    }
    view_->set_rebuild_pin(sim_.now(), k, true);
    advance_rebuild(k);
  }

  /// Restarts disk `k`'s rebuild slot under a fresh epoch, so completions
  /// of an aborted earlier run go stale. Its item list keeps its capacity.
  RebuildState& begin_rebuild(DiskId k, bool scrub) {
    RebuildState& st = rebuilds_[k];
    st.items.clear();
    st.next = 0;
    st.epoch = ++rebuild_epoch_;
    st.active = true;
    st.scrub = scrub;
    st.writing = false;
    return st;
  }

  /// Issues the next internal read of the rebuild on `target`, skipping
  /// items with no surviving replica; completes the rebuild when items run
  /// out.
  void advance_rebuild(DiskId target) {
    RebuildState& st = rebuilds_[target];
    EAS_ASSERT(st.active);
    while (st.next < st.items.size()) {
      const DataId b = st.items[st.next];
      const DiskId src = first_readable(b, target);
      if (src == kInvalidDisk) {
        ++stats().rebuild_items_lost;
        ++st.next;
        continue;
      }
      disk::Request rr;
      rr.id = st.epoch;
      rr.kind = disk::RequestKind::kRebuild;
      rr.target = target;
      rr.data = b;
      rr.size_bytes = config_.fault.rebuild_bytes_per_item;
      rr.arrival_time = sim_.now();
      st.writing = false;
      EAS_OBS(sim_.recorder(), rebuild_event(sim_.now(), obs::Ev::kRebuildRead,
                                             target, b, src));
      dispatch(rr, src);
      return;
    }
    finish_rebuild(target, st.scrub);
  }

  void on_rebuild_complete(const disk::Completion& c) {
    const DiskId target = c.request.target;
    RebuildState& st = rebuilds_[target];
    if (!st.active || st.epoch != c.request.id) {
      return;  // rebuild was aborted while this transfer was in flight
    }
    if (!st.writing) {
      // Source read done; copy onto the target. The target is kRebuilding
      // (or kUp for a scrub) — never kDown: on_disk_down aborts first.
      EAS_REQUIRE_MSG(view_->accepts_io(target),
                      "rebuild write targets failed disk " << target);
      st.writing = true;
      disk::Request w = c.request;
      w.arrival_time = sim_.now();
      EAS_OBS(sim_.recorder(),
              rebuild_event(sim_.now(), obs::Ev::kRebuildWrite, target,
                            c.request.data));
      dispatch(w, target);
      return;
    }
    // Write landed: the item is restored.
    stats().rebuild_bytes += c.request.size_bytes;
    if (st.scrub) {
      view_->clear_lost_range(sim_.now(), target, c.request.data,
                              c.request.data);
    }
    ++st.next;
    advance_rebuild(target);
  }

  void finish_rebuild(DiskId target, bool scrub) {
    const double t = sim_.now();
    EAS_OBS(sim_.recorder(),
            rebuild_event(t, obs::Ev::kRebuildDone, target, 0, scrub));
    rebuilds_[target].active = false;
    ++stats().rebuilds_completed;
    view_->set_rebuild_pin(t, target, false);
    if (!scrub) {
      // The replacement now holds every restorable block; any ranges lost
      // on the old incarnation are moot.
      if (view_->has_lost_ranges(target)) {
        view_->clear_lost_range(t, target, 0, kInvalidData);
      }
      view_->set_health(t, target, fault::DiskHealth::kUp);
    }
  }

  SystemConfig config_;
  const placement::PlacementMap& placement_;
  power::PowerPolicy& policy_;
  sim::Simulator sim_;
  /// The disks' status rows (sized once), which sched_view_ reads in place.
  std::vector<disk::DiskStatus> status_;
  core::SystemView sched_view_;
  std::vector<std::unique_ptr<disk::Disk>> disks_;
  std::vector<disk::Disk*> disk_ptrs_;

  /// Null in fault-free runs: zero overhead, bit-identical behavior.
  std::unique_ptr<fault::FailureView> view_;
  std::unique_ptr<fault::FaultInjector> injector_;
  /// One rebuild slot per disk (sized with the fault view); `active` marks
  /// a running rebuild or scrub onto that disk.
  std::vector<RebuildState> rebuilds_;
  std::uint32_t rebuild_epoch_ = 0;

  /// Cache tier; both empty (and every hook a single branch) when the config
  /// leaves the tier disabled.
  std::optional<cache::LruBlockCache> read_cache_;
  std::unique_ptr<cache::WriteBackBuffer> wb_;
  cache::CacheStats cache_stats_{};
  std::size_t high_blocks_ = 0;
  std::size_t low_blocks_ = 0;
  RequestId destage_seq_ = 0;
  std::vector<DataId> destage_buf_;
  std::vector<DataId> drain_buf_;
  /// Delay lanes of the fixed-delay tier timers (sim::Simulator::delay_lane),
  /// resolved once in the constructor for the timers the config enables:
  /// cache DRAM-latency completions and destage deadlines, reliability
  /// attempt deadlines and hedges. Each delay is fixed for the run, so a
  /// lane arms and cancels these timers in O(1) instead of in the heap.
  sim::Simulator::LaneId dram_lane_ = 0;
  sim::Simulator::LaneId destage_lane_ = 0;
  sim::Simulator::LaneId deadline_lane_ = 0;
  sim::Simulator::LaneId hedge_lane_ = 0;

  stats::SampleStore responses_;
  std::uint64_t completed_ = 0;
  std::uint64_t waited_spinup_ = 0;
  double last_completion_ = 0.0;

  /// Observability artifacts; null when the config leaves them off. The
  /// recorder is owned here (the simulator only borrows a raw pointer) and
  /// handed to the RunResult at finish() so the runner can export it.
  std::shared_ptr<obs::TraceRecorder> recorder_;
  std::shared_ptr<obs::MetricRegistry> metrics_;
  std::uint64_t batch_seq_ = 0;
  /// The live-fed registry entries (registration returns stable pointers),
  /// so hot paths never do a name lookup. Null when metrics are off or the
  /// owning tier is disabled.
  stats::SummaryStats* m_batch_size_ = nullptr;
  stats::SummaryStats* m_queue_depth_ = nullptr;
  stats::Histogram* m_response_ = nullptr;
  stats::SummaryStats* m_dirty_occupancy_ = nullptr;

  /// Reliability tier; retry_ null (and every hook a single branch) when the
  /// config leaves the tier disabled. inflight_ is a slab of entries
  /// reached by the slot each request carries (disk::Request::slot), with
  /// released slots reused from free_slots_; a deque, so growth never moves
  /// a live entry. A primary and its hedge copy share one entry. Timers
  /// capture {slot, id} and a late arrival checks the id (live_entry), so
  /// slot reuse cannot misdirect them.
  std::deque<InFlight> inflight_;
  std::vector<std::uint32_t> free_slots_;
  std::unique_ptr<reliability::RetryPolicy> retry_;
  reliability::ReliabilityStats rel_stats_{};
  /// Per-disk count of planned hedges whose timer is still running; the
  /// power policy probes this to keep the alternate warm through the window.
  std::vector<std::uint64_t> hedge_pins_;

  /// What finish() returns. Its tier flags are set at construction, where
  /// the metric registry walks the tier table.
  RunResult result_;
};

disk::Request make_request(RequestId id, const trace::TraceRecord& rec) {
  disk::Request r;
  r.id = id;
  r.data = rec.data;
  r.size_bytes = rec.size_bytes;
  r.is_read = rec.is_read;
  r.arrival_time = rec.time;
  r.dispatch_time = rec.time;
  return r;
}

/// Event that replays a trace through the kernel's arrival lane. Firing
/// record i re-arms the lane for record i+1, then announces record i and
/// hands it to the driver's `on_arrival`. Four pointer-sized fields, so it
/// lives inline in the lane's callback buffer.
template <typename OnArrival>
struct ArrivalCursor {
  System* system;
  const trace::Trace* trace;
  OnArrival* on_arrival;
  std::size_t i;

  void operator()() const {
    if (i + 1 < trace->size()) {
      system->simulator().schedule_arrival(
          (*trace)[i + 1].time, ArrivalCursor{system, trace, on_arrival, i + 1});
    }
    const disk::Request r = make_request(i, (*trace)[i]);
    system->note_arrival(r);
    (*on_arrival)(r);
  }
};

/// Streams `trace` into `system` one record at a time: only the next
/// arrival is ever pending, so the event heap holds O(disks + in-flight)
/// events, not one per record. The lane's equal-time priority gives exactly
/// the order of one pre-scheduled event per record. `on_arrival` is called
/// with each request after note_arrival and must outlive the run. The
/// response store is sized here, once, for every driver.
template <typename OnArrival>
void stream_arrivals(System& system, const trace::Trace& trace,
                     OnArrival& on_arrival) {
  system.reserve_responses(trace.size());
  if (trace.empty()) return;
  system.simulator().schedule_arrival(
      trace[0].time, ArrivalCursor<OnArrival>{&system, &trace, &on_arrival, 0});
}

/// run_batch's tick: assigns the requests that arrived since the last tick,
/// then re-arms itself while records remain to arrive or wait. A plain
/// struct over run-local state, stored inline in its event slot. `pending`
/// and `batch` trade buffers each tick, so neither regrows once warm.
struct BatchTick {
  System* system;
  core::BatchScheduler* sched;
  double interval;
  std::vector<disk::Request>* pending;
  std::vector<disk::Request>* batch;
  const std::size_t* remaining;

  void operator()() const {
    if (!pending->empty()) {
      batch->swap(*pending);
      system->note_batch(batch->size());
      const std::vector<DiskId> assignment =
          sched->assign(*batch, system->sched_view());
      EAS_ENSURE_MSG(assignment.size() == batch->size(),
                     "batch scheduler returned " << assignment.size()
                                                 << " picks for "
                                                 << batch->size()
                                                 << " requests");
      for (std::size_t b = 0; b < batch->size(); ++b) {
        system->route((*batch)[b], assignment[b]);
      }
      batch->clear();
    }
    if (*remaining > 0 || !pending->empty()) {
      system->simulator().schedule_in(interval, *this);
    }
  }
};

// Both re-arm once per record or tick; a heap fallback there would cost an
// allocation each time.
static_assert(sizeof(ArrivalCursor<void>) <= sim::InlineCallback::kInlineSize);
static_assert(sizeof(BatchTick) <= sim::InlineCallback::kInlineSize);

}  // namespace

RunResult run_online(const SystemConfig& config,
                     const placement::PlacementMap& placement,
                     const trace::Trace& trace, core::OnlineScheduler& sched,
                     power::PowerPolicy& policy) {
  System system(config, placement, policy);
  auto on_arrival = [&system, &sched](const disk::Request& r) {
    if (system.cache_absorb(r)) return;
    system.route(r, sched.pick(r, system.sched_view()));
  };
  stream_arrivals(system, trace, on_arrival);
  system.start(trace.end_time());
  return system.finish(sched.name());
}

RunResult run_batch(const SystemConfig& config,
                    const placement::PlacementMap& placement,
                    const trace::Trace& trace, core::BatchScheduler& sched,
                    power::PowerPolicy& policy) {
  System system(config, placement, policy);
  const double interval = sched.batch_interval_seconds();
  EAS_REQUIRE(interval > 0.0);

  // Arrivals accumulate in `pending`; a tick chain drains them. The chain
  // keeps running while arrivals remain so an empty interval cannot strand
  // later requests.
  std::vector<disk::Request> pending;
  std::vector<disk::Request> batch;
  std::size_t remaining = trace.size();
  auto on_arrival = [&system, &pending, &remaining](const disk::Request& r) {
    --remaining;
    // The cache sits in front of the batch queue: absorbed requests
    // complete at DRAM latency instead of waiting for the next tick.
    if (system.cache_absorb(r)) return;
    pending.push_back(r);
  };
  stream_arrivals(system, trace, on_arrival);
  if (!trace.empty()) {
    system.simulator().schedule_at(
        trace.start_time() + interval,
        BatchTick{&system, &sched, interval, &pending, &batch, &remaining});
  }

  system.start(trace.end_time());
  return system.finish(sched.name());
}

RunResult run_offline(const SystemConfig& config,
                      const placement::PlacementMap& placement,
                      const trace::Trace& trace,
                      const core::OfflineAssignment& assignment,
                      const std::string& scheduler_name) {
  assignment.validate(trace, placement);
  power::OraclePolicy policy(
      assignment.arrivals_by_disk(trace, placement.num_disks()));
  System system(config, placement, policy);
  auto on_arrival = [&system, &assignment](const disk::Request& r) {
    if (system.cache_absorb(r)) return;
    system.route(r, assignment.disk_of_request[r.id]);
  };
  stream_arrivals(system, trace, on_arrival);
  system.start(trace.end_time());
  return system.finish(scheduler_name);
}

RunResult run_always_on(const SystemConfig& config,
                        const placement::PlacementMap& placement,
                        const trace::Trace& trace) {
  SystemConfig cfg = config;
  cfg.initial_state = disk::DiskState::Idle;
  power::AlwaysOnPolicy policy;
  core::StaticScheduler sched;
  return run_online(cfg, placement, trace, sched, policy);
}

RunResult run_online_mixed(const SystemConfig& config,
                           const placement::PlacementMap& placement,
                           const trace::Trace& trace,
                           core::OnlineScheduler& sched,
                           power::PowerPolicy& policy,
                           core::WriteOffloadManager& offloader) {
  // The off-loader routes by its own log, blind to the failure view; wiring
  // it into degraded mode is future work, so fail loudly rather than run a
  // fault profile it would silently ignore.
  EAS_REQUIRE_MSG(!config.fault.enabled(),
                  "write-offload runs do not support fault injection");
  // The off-loader and the cache tier are alternative write paths; running
  // both would double-absorb writes. Pick one per experiment.
  EAS_REQUIRE_MSG(!config.cache.enabled,
                  "write-offload runs do not support the cache tier");
  // Mixed runs dispatch through dispatch_unchecked/dispatch directly, so
  // the reliability state machine would only cover part of the traffic;
  // refuse rather than half-protect.
  EAS_REQUIRE_MSG(!config.reliability.enabled,
                  "write-offload runs do not support the reliability tier");
  System system(config, placement, policy);
  auto on_arrival = [&system, &sched, &offloader](const disk::Request& r) {
    const core::SystemView& view = system.sched_view();
    if (!r.is_read) {
      system.dispatch_unchecked(r, offloader.route_write(r, view));
      return;
    }
    // A freshly written block may live away from placement until
    // reclaimed; such reads bypass the scheduler (there is exactly one
    // valid location).
    if (const auto diverted = offloader.read_override(r.data, view)) {
      system.dispatch_unchecked(r, *diverted);
      return;
    }
    system.dispatch(r, sched.pick(r, view));
  };
  stream_arrivals(system, trace, on_arrival);
  system.start(trace.end_time());
  RunResult result = system.finish(sched.name() + "+write-offload");
  result.write_offload_enabled = true;
  result.write_offload_stats = offloader.stats();
  return result;
}

}  // namespace eas::storage
