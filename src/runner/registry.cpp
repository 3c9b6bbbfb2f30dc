#include "runner/registry.hpp"

#include <sstream>

#include "core/basic_schedulers.hpp"
#include "core/cost_scheduler.hpp"
#include "core/mwis_scheduler.hpp"
#include "core/wsc_scheduler.hpp"
#include "power/fixed_threshold.hpp"
#include "util/check.hpp"

namespace eas::runner {

SchedulerRegistry SchedulerRegistry::paper_roster() {
  SchedulerRegistry r;
  r.add({"always-on", "all disks idle forever (energy baseline)",
         [](const ExperimentParams&, const placement::PlacementMap&) {
           return SchedulerBundle{};  // run_always_on fixes everything
         }});
  r.add({"random", "uniformly random replica, 2CPM",
         [](const ExperimentParams& p, const placement::PlacementMap&) {
           SchedulerBundle b;
           b.online =
               std::make_unique<core::RandomScheduler>(p.trace_seed ^ 0x5eedULL);
           b.policy = std::make_unique<power::FixedThresholdPolicy>();
           return b;
         }});
  r.add({"static", "original data location, 2CPM",
         [](const ExperimentParams&, const placement::PlacementMap&) {
           SchedulerBundle b;
           b.online = std::make_unique<core::StaticScheduler>();
           b.policy = std::make_unique<power::FixedThresholdPolicy>();
           return b;
         }});
  r.add({"heuristic", "Eq. 6 composite-cost online heuristic, 2CPM",
         [](const ExperimentParams& p, const placement::PlacementMap&) {
           SchedulerBundle b;
           b.online = std::make_unique<core::CostFunctionScheduler>(p.cost);
           b.policy = std::make_unique<power::FixedThresholdPolicy>();
           return b;
         }});
  r.add({"wsc", "weighted-set-cover batch scheduler, 2CPM",
         [](const ExperimentParams& p, const placement::PlacementMap&) {
           SchedulerBundle b;
           b.batch = std::make_unique<core::WscBatchScheduler>(
               p.batch_interval, p.cost);
           b.policy = std::make_unique<power::FixedThresholdPolicy>();
           return b;
         }});
  r.add({"mwis", "offline conflict-graph MWIS schedule under the oracle policy",
         [](const ExperimentParams& p, const placement::PlacementMap&) {
           core::MwisOptions opts;
           opts.algorithm = core::MwisOptions::Algorithm::kGwmin;
           opts.graph.successor_horizon = p.mwis_horizon;
           opts.refine_passes = p.mwis_refine_passes;
           SchedulerBundle b;
           b.offline = std::make_unique<core::MwisOfflineScheduler>(opts);
           return b;
         }});
  return r;
}

const SchedulerRegistry& SchedulerRegistry::global() {
  static const SchedulerRegistry roster = paper_roster();
  return roster;
}

void SchedulerRegistry::add(SchedulerSpec spec) {
  EAS_REQUIRE_MSG(!spec.name.empty(), "scheduler spec with empty name");
  EAS_REQUIRE_MSG(static_cast<bool>(spec.make),
                "scheduler spec '" << spec.name << "' has no factory");
  EAS_REQUIRE_MSG(!contains(spec.name),
                "duplicate scheduler spec '" << spec.name << "'");
  specs_.push_back(std::move(spec));
}

const SchedulerSpec* SchedulerRegistry::find(std::string_view name) const {
  for (const auto& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const SchedulerSpec& SchedulerRegistry::at(std::string_view name) const {
  const SchedulerSpec* s = find(name);
  if (s == nullptr) {
    std::ostringstream os;
    os << "unknown scheduler row: " << name << " (known:";
    for (const auto& spec : specs_) os << ' ' << spec.name;
    os << ')';
    throw InvariantError(os.str());
  }
  return *s;
}

std::vector<std::string> SchedulerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& s : specs_) out.push_back(s.name);
  return out;
}

storage::RunResult run_cell(const SchedulerSpec& spec,
                            const ExperimentParams& p,
                            const trace::Trace& trace,
                            const placement::PlacementMap& placement) {
  p.validate();
  const storage::SystemConfig config = system_config_for(p);
  SchedulerBundle b = spec.make(p, placement);
  const int schedulers = static_cast<int>(b.online != nullptr) +
                         static_cast<int>(b.batch != nullptr) +
                         static_cast<int>(b.offline != nullptr);
  EAS_REQUIRE_MSG(schedulers <= 1,
                  "spec '" << spec.name << "' builds " << schedulers
                           << " schedulers; set one of online/batch/offline");
  EAS_REQUIRE_MSG(!b.offload || b.online,
                  "spec '" << spec.name
                           << "' builds a write off-loader without an online "
                              "scheduler");
  EAS_REQUIRE_MSG((b.policy != nullptr) == (b.online || b.batch),
                  "spec '" << spec.name
                           << "' must build a power policy with its online or "
                              "batch scheduler, and with nothing else");

  if (b.offline) {
    const auto assignment = b.offline->schedule(trace, placement, config.power);
    return storage::run_offline(config, placement, trace, assignment,
                                b.offline->name());
  }
  if (b.batch) {
    return storage::run_batch(config, placement, trace, *b.batch, *b.policy);
  }
  if (b.offload) {
    return storage::run_online_mixed(config, placement, trace, *b.online,
                                     *b.policy, *b.offload);
  }
  if (b.online) {
    return storage::run_online(config, placement, trace, *b.online, *b.policy);
  }
  return storage::run_always_on(config, placement, trace);
}

storage::RunResult run_cell(const SchedulerRegistry& registry,
                            std::string_view name, const ExperimentParams& p,
                            const trace::Trace& trace,
                            const placement::PlacementMap& placement) {
  return run_cell(registry.at(name), p, trace, placement);
}

}  // namespace eas::runner
