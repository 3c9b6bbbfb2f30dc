#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/mwis_scheduler.hpp"

namespace eas::bench {

namespace {

/// Counts one call into `span` and, when the call is sampled, times the
/// guard's lifetime. The guard must be constructed right before the call.
class Sample {
 public:
  explicit Sample(Span& span)
      : span_(span.calls++ % kSampleEvery == 0 ? &span : nullptr) {
    if (span_ != nullptr) t0_ = Clock::now();
  }
  ~Sample() {
    if (span_ != nullptr) span_->timed.push_back(Clock::now() - t0_);
  }
  Sample(const Sample&) = delete;
  Sample& operator=(const Sample&) = delete;

 private:
  Span* span_;
  Clock::time_point t0_{};
};

class TimedOnline final : public core::OnlineScheduler {
 public:
  TimedOnline(std::unique_ptr<core::OnlineScheduler> inner, LayerProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }

  DiskId pick(const disk::Request& r, const core::SystemView& view) override {
    ++probe_.sched_requests;
    const Sample timing(probe_.sched);
    return inner_->pick(r, view);
  }

 private:
  std::unique_ptr<core::OnlineScheduler> inner_;
  LayerProbe& probe_;
};

class TimedBatch final : public core::BatchScheduler {
 public:
  TimedBatch(std::unique_ptr<core::BatchScheduler> inner, LayerProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  double batch_interval_seconds() const override {
    return inner_->batch_interval_seconds();
  }

  std::vector<DiskId> assign(const std::vector<disk::Request>& batch,
                             const core::SystemView& view) override {
    probe_.sched_requests += batch.size();
    const Sample timing(probe_.sched);
    return inner_->assign(batch, view);
  }

 private:
  std::unique_ptr<core::BatchScheduler> inner_;
  LayerProbe& probe_;
};

class TimedOffline final : public core::OfflineScheduler {
 public:
  TimedOffline(std::unique_ptr<core::OfflineScheduler> inner,
               LayerProbe& probe)
      : inner_(std::move(inner)),
        mwis_(dynamic_cast<const core::MwisOfflineScheduler*>(inner_.get())),
        probe_(probe) {}

  std::string name() const override { return inner_->name(); }

  core::OfflineAssignment schedule(const trace::Trace& trace,
                                   const placement::PlacementMap& placement,
                                   const disk::DiskPowerParams& power) override {
    probe_.sched_requests += trace.size();
    core::OfflineAssignment out;
    {
      const Sample timing(probe_.sched);
      out = inner_->schedule(trace, placement, power);
    }
    // run_cell destroys the scheduler before returning, so the solver's
    // diagnostics are copied out while it is still alive.
    if (mwis_ != nullptr) {
      probe_.graph_nodes = mwis_->last_graph_nodes();
      probe_.graph_edges = mwis_->last_graph_edges();
      probe_.graph_selected = mwis_->last_selected_count();
    }
    return out;
  }

 private:
  std::unique_ptr<core::OfflineScheduler> inner_;
  const core::MwisOfflineScheduler* mwis_;
  LayerProbe& probe_;
};

class TimedPolicy final : public power::PowerPolicy {
 public:
  TimedPolicy(std::unique_ptr<power::PowerPolicy> inner, LayerProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }

  // The probes and the failure view are read by the wrapped policy's own
  // spin-down logic, so they must land there, not in this decorator's base.
  void set_failure_view(const fault::FailureView* fv) override {
    inner_->set_failure_view(fv);
  }
  void set_destage_probe(DestageProbe probe) override {
    inner_->set_destage_probe(std::move(probe));
  }
  void set_hedge_probe(HedgeProbe probe) override {
    inner_->set_hedge_probe(std::move(probe));
  }

  void on_run_start(sim::Simulator& sim,
                    const std::vector<disk::Disk*>& disks) override {
    inner_->on_run_start(sim, disks);
  }
  void on_disk_idle(sim::Simulator& sim, disk::Disk& d) override {
    const Sample timing(probe_.policy_idle);
    inner_->on_disk_idle(sim, d);
  }
  void on_disk_activity(sim::Simulator& sim, disk::Disk& d) override {
    const Sample timing(probe_.policy_activity);
    inner_->on_disk_activity(sim, d);
  }

 private:
  std::unique_ptr<power::PowerPolicy> inner_;
  LayerProbe& probe_;
};

}  // namespace

double Span::seconds(double clock_ns) const {
  if (timed.empty()) return 0.0;
  double ns = 0.0;
  for (const Clock::duration d : timed) {
    ns += std::chrono::duration<double, std::nano>(d).count() - clock_ns;
  }
  const double per_call = std::max(0.0, ns / static_cast<double>(timed.size()));
  return per_call * static_cast<double>(calls) * 1e-9;
}

runner::SchedulerSpec traced(const runner::SchedulerSpec& base,
                             LayerProbe& probe) {
  runner::SchedulerSpec spec = base;
  spec.name = base.name + "+traced";
  spec.make = [make = base.make, &probe](const runner::ExperimentParams& p,
                                         const placement::PlacementMap& pm) {
    runner::SchedulerBundle b = make(p, pm);
    if (b.online) {
      b.online = std::make_unique<TimedOnline>(std::move(b.online), probe);
    }
    if (b.batch) {
      b.batch = std::make_unique<TimedBatch>(std::move(b.batch), probe);
    }
    if (b.offline) {
      b.offline = std::make_unique<TimedOffline>(std::move(b.offline), probe);
    }
    if (b.policy) {
      b.policy = std::make_unique<TimedPolicy>(std::move(b.policy), probe);
    }
    return b;
  };
  return spec;
}

}  // namespace eas::bench
