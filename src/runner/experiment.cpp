#include "runner/experiment.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "trace/synthetic.hpp"
#include "util/check.hpp"

namespace eas::runner {

namespace {

// fail_disk_at's eager argument check: std::invalid_argument naming the
// field, so a grid declaration fails on the offending line.
void require_non_negative(double v, const char* field) {
  if (std::isfinite(v) && v >= 0.0) return;
  std::ostringstream os;
  os << field << " must be finite and >= 0, got " << v;
  throw std::invalid_argument(os.str());
}

// The tier setters' check: the config's own validate(), its InvariantError
// (which names the field) rethrown as the setters' std::invalid_argument.
template <typename Config>
void validate_argument(const Config& c) {
  try {
    c.validate();
  } catch (const InvariantError& e) {
    throw std::invalid_argument(e.what());
  }
}

}  // namespace

const char* to_string(Workload w) {
  return w == Workload::kCello ? "cello" : "financial1";
}

std::optional<Workload> workload_from_string(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

void ExperimentParams::validate() const {
  EAS_REQUIRE_MSG(num_requests > 0, "experiment with zero requests");
  EAS_REQUIRE_MSG(num_disks > 0, "experiment with zero disks");
  EAS_REQUIRE_MSG(replication_factor >= 1 &&
                    replication_factor <= static_cast<unsigned>(num_disks),
                "replication factor " << replication_factor
                                      << " not in 1.." << num_disks);
  EAS_REQUIRE_MSG(zipf_z >= 0.0 && zipf_z <= 1.0,
                "zipf_z " << zipf_z << " outside [0, 1]");
  EAS_REQUIRE_MSG(batch_interval > 0.0,
                "batch interval must be positive, got " << batch_interval);
  EAS_REQUIRE_MSG(cost.alpha >= 0.0 && cost.alpha <= 1.0,
                "cost alpha " << cost.alpha << " outside [0, 1]");
  EAS_REQUIRE_MSG(cost.beta > 0.0, "cost beta must be positive");
  EAS_REQUIRE_MSG(mwis_horizon >= 1, "mwis horizon must be >= 1");
  fault.validate(num_disks);
  obs.validate();
  cache.validate();
  reliability.validate();
}

ExperimentParams ExperimentBuilder::build() const {
  p_.validate();
  return p_;
}

ExperimentBuilder& ExperimentBuilder::cache(cache::CacheConfig c) {
  c.enabled = true;
  validate_argument(c);
  p_.cache = c;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::reliability(
    reliability::ReliabilityConfig c) {
  c.enabled = true;
  validate_argument(c);
  p_.reliability = c;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::fail_disk_at(DiskId disk, double time,
                                                   double repair) {
  require_non_negative(time, "fail_disk_at.time");
  require_non_negative(repair, "fail_disk_at.repair");
  fault::ScriptedFault f;
  f.kind = fault::ScriptedFault::Kind::kFailStop;
  f.disk = disk;
  f.time = time;
  f.duration = repair;
  p_.fault.script.push_back(f);
  return *this;
}

trace::Trace make_workload(Workload w, std::uint64_t seed,
                           std::size_t num_requests) {
  trace::SyntheticTraceConfig cfg = w == Workload::kCello
                                        ? trace::cello_like_config(seed)
                                        : trace::financial_like_config(seed);
  cfg.num_requests = num_requests;
  return trace::make_synthetic_trace(cfg);
}

std::shared_ptr<const trace::Trace> make_shared_workload(
    const ExperimentParams& p) {
  return std::make_shared<const trace::Trace>(
      make_workload(p.workload, p.trace_seed, p.num_requests));
}

placement::PlacementMap make_placement(const ExperimentParams& p) {
  placement::ZipfPlacementConfig cfg;
  cfg.num_disks = p.num_disks;
  // The data universe must cover every id the workload references.
  cfg.num_data = 32768;
  cfg.replication_factor = p.replication_factor;
  cfg.zipf_z = p.zipf_z;
  cfg.seed = p.placement_seed;
  return placement::make_zipf_placement(cfg);
}

std::shared_ptr<const placement::PlacementMap> make_shared_placement(
    const ExperimentParams& p) {
  return std::make_shared<const placement::PlacementMap>(make_placement(p));
}

storage::SystemConfig paper_system_config() {
  storage::SystemConfig cfg;  // DiskPowerParams/DiskPerfParams defaults are
                              // the Fig 5 values; see disk/params.hpp.
  cfg.initial_state = disk::DiskState::Standby;
  return cfg;
}

storage::SystemConfig system_config_for(const ExperimentParams& p) {
  storage::SystemConfig cfg = paper_system_config();
  cfg.initial_state = p.initial_state;
  cfg.fault = p.fault;
  cfg.obs = p.obs;
  cfg.cache = p.cache;
  cfg.reliability = p.reliability;
  return cfg;
}

std::string describe(const ExperimentParams& p) {
  std::ostringstream os;
  os << "workload=" << to_string(p.workload) << " requests="
     << p.num_requests << " disks=" << p.num_disks
     << " rf=" << p.replication_factor << " zipf_z=" << p.zipf_z
     << " alpha=" << p.cost.alpha << " beta=" << p.cost.beta
     << " batch=" << p.batch_interval << "s";
  // Fault-free experiments keep the historical one-line form untouched.
  if (p.fault.enabled()) {
    os << " faults[";
    if (p.fault.mttf_seconds > 0.0) {
      os << "mttf=" << p.fault.mttf_seconds << "s shape="
         << p.fault.weibull_shape << " mttr=" << p.fault.mttr_seconds << "s ";
    }
    os << "scripted=" << p.fault.script.size() << " seed=" << p.fault.seed
       << "]";
  }
  // Likewise cache-free experiments: the tier appears only when enabled.
  if (p.cache.enabled) {
    os << " cache[" << cache::to_string(p.cache.policy)
       << " blocks=" << p.cache.capacity_blocks
       << " dirty=" << p.cache.dirty_capacity_blocks
       << " mem_w_gib=" << p.cache.memory_watts_per_gib << "]";
  }
  // And reliability-free experiments: the tier appears only when enabled.
  if (p.reliability.enabled) {
    os << " reliability[deadline=" << p.reliability.deadline_seconds
       << "s attempts=" << p.reliability.max_attempts
       << " hedge=" << p.reliability.hedge_delay_seconds
       << "s depth=" << p.reliability.max_queue_depth << "]";
  }
  return os.str();
}

namespace {

// strtoull accepts a leading '-' and wraps it through unsigned arithmetic,
// so "-3" would read as a huge thread count; treat any sign as unparseable.
std::size_t positive_from_env(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '-' || *env == '+') return 0;
  return std::strtoull(env, nullptr, 10);
}

}  // namespace

std::size_t requests_from_env(std::size_t fallback) {
  const auto n = positive_from_env("EAS_REQUESTS");
  return n > 0 ? n : fallback;
}

std::size_t threads_from_env() {
  const auto n = positive_from_env("EAS_THREADS");
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace eas::runner
