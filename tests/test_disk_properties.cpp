// Parameterized property tests for the disk model: across a family of power
// configurations, the DES disk's energy accounting must agree with direct
// integration of its state timeline, and single-disk behaviour must match
// the analytic Lemma-1 evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/offline_eval.hpp"
#include "core/scheduler.hpp"
#include "disk/disk.hpp"
#include "power/fixed_threshold.hpp"
#include "power/oracle.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace eas::disk {
namespace {

// gtest prints a parameter that has no PrintTo as its raw bytes, and
// gtest_discover_tests copies them into the ctest name. So every byte of a
// PowerCase must follow from the case itself: the label is an index into
// kPowerLabels, not a pointer (whose address changed the names from build
// to build), and both members are 8-byte fields with no padding between.
constexpr const char* kPowerLabels[] = {"barracuda", "fast_transitions",
                                        "high_idle", "cheap_standby",
                                        "forced_breakeven"};

struct PowerCase {
  std::uint64_t label;  ///< index into kPowerLabels
  DiskPowerParams params;
};
static_assert(sizeof(PowerCase) ==
              sizeof(std::uint64_t) + sizeof(DiskPowerParams));

std::vector<PowerCase> power_cases() {
  std::vector<PowerCase> cases;
  {
    PowerCase c{0, {}};
    cases.push_back(c);
  }
  {
    PowerCase c{1, {}};
    c.params.spinup_seconds = 1.0;
    c.params.spindown_seconds = 0.5;
    c.params.spinup_watts = 15.0;
    cases.push_back(c);
  }
  {
    PowerCase c{2, {}};
    c.params.idle_watts = 12.0;
    c.params.active_watts = 14.0;
    cases.push_back(c);
  }
  {
    PowerCase c{3, {}};
    c.params.standby_watts = 0.0;
    cases.push_back(c);
  }
  {
    PowerCase c{4, {}};
    c.params.breakeven_override_seconds = 12.0;
    cases.push_back(c);
  }
  return cases;
}

class DiskPowerCaseTest : public ::testing::TestWithParam<PowerCase> {};

TEST_P(DiskPowerCaseTest, EnergyEqualsPowerTimesResidency) {
  const auto& p = GetParam().params;
  sim::Simulator sim;
  Disk d(0, sim, p, DiskPerfParams{}, DiskState::Standby);
  util::Rng rng(5);

  // Random request schedule with gaps spanning all Lemma-1 cases.
  power::FixedThresholdPolicy policy;
  d.set_idle_callback([&](Disk& disk) { policy.on_disk_idle(sim, disk); });
  double t = 1.0;
  for (int i = 0; i < 40; ++i) {
    t += rng.uniform(0.5, 2.5 * p.saving_window_seconds());
    sim.schedule_at(t, [&d, &policy, &sim, i] {
      Request r;
      r.id = static_cast<RequestId>(i);
      policy.on_disk_activity(sim, d);
      d.submit(r);
    });
  }
  sim.run();
  d.finalize(sim.now());

  const auto& st = d.stats();
  const double watts[kNumDiskStates] = {
      p.standby_watts, p.spinup_watts, p.idle_watts, p.active_watts,
      p.spindown_watts};
  double expected = 0.0;
  for (int s = 0; s < kNumDiskStates; ++s) {
    expected += st.seconds_in_state[s] * watts[s];
  }
  EXPECT_NEAR(st.total_joules(), expected, 1e-6);
  EXPECT_NEAR(st.total_seconds(), sim.now(), 1e-9);
  EXPECT_EQ(st.requests_served, 40u);
  // A settled disk has paired transitions (started in standby).
  EXPECT_EQ(st.spin_ups, st.spin_downs + (d.state() != DiskState::Standby &&
                                                  d.state() != DiskState::SpinningDown
                                              ? 1u
                                              : 0u));
}

TEST_P(DiskPowerCaseTest, OracleSingleDiskMatchesAnalyticEvaluator) {
  const auto& p = GetParam().params;
  util::Rng rng(11);
  std::vector<trace::TraceRecord> recs;
  double t = p.spinup_seconds + 1.0;
  for (int i = 0; i < 30; ++i) {
    t += rng.uniform(0.5, 2.0 * p.saving_window_seconds());
    recs.push_back({t, 0, 4096, true});
  }
  const trace::Trace trace(std::move(recs));

  core::OfflineAssignment a;
  a.disk_of_request.assign(trace.size(), 0);

  // DES run: one disk driven by the oracle policy.
  sim::Simulator sim;
  Disk d(0, sim, p, DiskPerfParams{}, DiskState::Standby);
  power::OraclePolicy policy(a.arrivals_by_disk(trace, 1));
  d.set_idle_callback([&](Disk& disk) { policy.on_disk_idle(sim, disk); });
  for (std::size_t i = 0; i < trace.size(); ++i) {
    sim.schedule_at(trace[i].time, [&, i] {
      Request r;
      r.id = i;
      policy.on_disk_activity(sim, d);
      d.submit(r);
    });
  }
  std::vector<Disk*> disks{&d};
  policy.on_run_start(sim, disks);
  sim.run();

  const double horizon = sim.now();
  d.finalize(horizon);
  const auto analytic = core::evaluate_offline(trace, a, 1, p, horizon);

  EXPECT_EQ(d.stats().spin_ups, analytic.disk_stats[0].spin_ups);
  EXPECT_EQ(d.stats().spin_downs, analytic.disk_stats[0].spin_downs);
  // Active time is the only modelled difference (analytic treats I/O as
  // instantaneous); with 4 KB requests it is sub-permille.
  EXPECT_NEAR(d.stats().total_joules(),
              analytic.disk_stats[0].total_joules(),
              0.005 * analytic.disk_stats[0].total_joules() + 5.0)
      << kPowerLabels[GetParam().label];
}

INSTANTIATE_TEST_SUITE_P(PowerModels, DiskPowerCaseTest,
                         ::testing::ValuesIn(power_cases()),
                         [](const ::testing::TestParamInfo<PowerCase>& param) {
                           return std::string(kPowerLabels[param.param.label]);
                         });

// The status row's queue depth is a count the disk keeps at every queue
// change, not a size it measures. Seeded streams of submit, remove_pending,
// take_pending and simulator steps check it after every call against a
// count kept here: the requests submitted and not yet completed, removed or
// taken back. remove_pending of a request the test knows has left must
// fail; of a live one it may (the request is in service) or may not.
TEST(DiskQueueDepthProperty, RowDepthMatchesTheCountKeptByTheTest) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    sim::Simulator sim;
    DiskStatus row;
    Disk d(0, sim, DiskPowerParams{}, DiskPerfParams{}, DiskState::Standby,
           &row);
    ASSERT_EQ(&d.status(), &row);
    power::FixedThresholdPolicy policy;
    d.set_idle_callback([&](Disk& disk) { policy.on_disk_idle(sim, disk); });
    // Submitted and not yet completed, removed or taken: (id, kind).
    std::vector<std::pair<RequestId, RequestKind>> live;
    const auto erase_live = [&live](RequestId id, RequestKind kind) {
      const auto it = std::find(live.begin(), live.end(),
                                std::pair<RequestId, RequestKind>{id, kind});
      if (it == live.end()) return false;
      live.erase(it);
      return true;
    };
    d.set_completion_callback([&](const Completion& c) {
      EXPECT_TRUE(erase_live(c.request.id, c.request.kind));
    });
    util::Rng rng(seed);
    RequestId next_id = 0;
    for (int step = 0; step < 1500; ++step) {
      const std::uint64_t op = rng.next_below(10);
      SCOPED_TRACE(::testing::Message() << "step " << step << " op " << op);
      if (op < 4) {
        Request r;
        r.id = next_id++;
        // A primary and its hedge share an id; queue one of each sometimes.
        r.kind = rng.bernoulli(0.2) ? RequestKind::kHedge
                                    : RequestKind::kForeground;
        policy.on_disk_activity(sim, d);
        d.submit(r);
        live.emplace_back(r.id, r.kind);
      } else if (op < 6 && next_id > 0) {
        const RequestId id = rng.next_below(next_id);
        const RequestKind kind = rng.bernoulli(0.5) ? RequestKind::kHedge
                                                    : RequestKind::kForeground;
        const bool was_live =
            std::find(live.begin(), live.end(),
                      std::pair<RequestId, RequestKind>{id, kind}) !=
            live.end();
        if (d.remove_pending(id, kind)) {
          ASSERT_TRUE(was_live) << "removed request " << id << " twice";
          erase_live(id, kind);
        }
      } else if (op == 6) {
        std::vector<Request> taken;
        d.take_pending(taken);
        for (const Request& r : taken) {
          ASSERT_TRUE(erase_live(r.id, r.kind)) << "took request " << r.id;
        }
      } else {
        // Steps short and long: service completions, spin-ups, spin-downs.
        sim.run_until(sim.now() + rng.uniform(0.0, 40.0));
      }
      ASSERT_EQ(row.queued_requests, live.size());
      ASSERT_EQ(d.queued_requests(), live.size());
    }
    sim.run();
    EXPECT_TRUE(live.empty());
    EXPECT_EQ(row.queued_requests, 0u);
  }
}

}  // namespace
}  // namespace eas::disk
