// Golden tests pinning the emitter output schemas. The CSV and JSON forms
// of ResultTable, RunResult::to_json() and emit_cells() are consumed by
// external plotting pipelines — any diff against these literals is a
// breaking schema change and must be made deliberately.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "runner/emit.hpp"
#include "runner/sweep.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace eas {
namespace {

runner::ResultTable sample_table() {
  runner::ResultTable t("Fig X: demo", {"rf", "name", "energy", "ops"});
  t.row().cell(1).cell("static").cell(0.5, 3).cell(
      static_cast<unsigned long long>(42));
  t.row().cell(2).cell("a,b\"c").cell(0.0625, 3).cell(
      static_cast<unsigned long long>(7));
  return t;
}

std::string emitted(const runner::ResultTable& t, runner::EmitFormat f) {
  std::ostringstream os;
  t.emit(os, f);
  return os.str();
}

TEST(EmitterGolden, AlignedTable) {
  EXPECT_EQ(emitted(sample_table(), runner::EmitFormat::kTable),
            "=== Fig X: demo ===\n"
            "rf  name    energy  ops\n"
            "-----------------------\n"
            "1   static  0.500   42 \n"
            "2   a,b\"c   0.062   7  \n");
}

TEST(EmitterGolden, Csv) {
  // Full-precision doubles (shortest round-trip), RFC 4180 quoting of the
  // embedded comma and quote.
  EXPECT_EQ(emitted(sample_table(), runner::EmitFormat::kCsv),
            "# Fig X: demo\n"
            "rf,name,energy,ops\n"
            "1,static,0.5,42\n"
            "2,\"a,b\"\"c\",0.0625,7\n");
}

TEST(EmitterGolden, Json) {
  EXPECT_EQ(emitted(sample_table(), runner::EmitFormat::kJson),
            "{\"title\":\"Fig X: demo\","
            "\"columns\":[\"rf\",\"name\",\"energy\",\"ops\"],"
            "\"rows\":["
            "{\"rf\":1,\"name\":\"static\",\"energy\":0.5,\"ops\":42},"
            "{\"rf\":2,\"name\":\"a,b\\\"c\",\"energy\":0.0625,\"ops\":7}"
            "]}\n");
}

TEST(EmitterGolden, RowWidthIsEnforced) {
  runner::ResultTable t("bad", {"a", "b"});
  t.row().cell(1);
  std::ostringstream os;
  EXPECT_THROW(t.emit(os, runner::EmitFormat::kCsv), InvariantError);
  t.cell(2);
  EXPECT_THROW(t.cell(3), InvariantError);  // too many cells
}

TEST(EmitterGolden, FormatFromEnv) {
  ::setenv("EAS_EMIT", "csv", 1);
  EXPECT_EQ(runner::emit_format_from_env(), runner::EmitFormat::kCsv);
  ::setenv("EAS_EMIT", "json", 1);
  EXPECT_EQ(runner::emit_format_from_env(), runner::EmitFormat::kJson);
  ::setenv("EAS_EMIT", "typo", 1);
  EXPECT_EQ(runner::emit_format_from_env(), runner::EmitFormat::kTable);
  ::unsetenv("EAS_EMIT");
  EXPECT_EQ(runner::emit_format_from_env(runner::EmitFormat::kJson),
            runner::EmitFormat::kJson);
}

TEST(EmitterGolden, RunResultToJsonSchema) {
  storage::RunResult r;
  r.scheduler_name = "static";
  r.policy_name = "threshold";
  r.horizon = 12.5;
  r.total_requests = 3;
  r.requests_waited_spinup = 1;
  r.disk_stats.resize(2);
  r.disk_stats[0].seconds_in_state[static_cast<int>(disk::DiskState::Idle)] =
      10.0;
  r.disk_stats[0].joules_in_state[static_cast<int>(disk::DiskState::Idle)] =
      95.0;
  r.disk_stats[0].spin_ups = 2;
  r.disk_stats[1]
      .seconds_in_state[static_cast<int>(disk::DiskState::Standby)] = 12.5;
  r.response_times.add(0.25);
  r.response_times.add(0.75);
  r.response_times.add(0.5);

  EXPECT_EQ(r.to_json(),
            "{\"scheduler\":\"static\",\"policy\":\"threshold\","
            "\"horizon_seconds\":12.5,\"num_disks\":2,\"total_requests\":3,"
            "\"requests_waited_spinup\":1,\"total_energy_joules\":95,"
            "\"spin_ups\":2,\"spin_downs\":0,"
            "\"response_seconds\":{\"count\":3,\"mean\":0.5,\"p50\":0.5,"
            "\"p90\":0.7000000000000001,\"p99\":0.745,\"max\":0.75},"
            "\"fleet_state_seconds\":{\"standby\":12.5,\"spin-up\":0,"
            "\"idle\":10,\"active\":0,\"spin-down\":0}}");

  const auto with_disks = r.to_json(/*include_disks=*/true);
  EXPECT_NE(with_disks.find("\"disks\":[{\"requests_served\":0,"
                            "\"spin_ups\":2,\"spin_downs\":0,"
                            "\"energy_joules\":95,"),
            std::string::npos);
}

TEST(EmitterGolden, EmitCellsJsonSchema) {
  std::vector<runner::CellResult> cells(2);
  cells[0].index = 0;
  cells[0].spec.tag = "1";
  cells[0].spec.scheduler = "static";
  cells[0].status = runner::CellStatus::kOk;
  cells[0].result.scheduler_name = "static";
  cells[0].result.policy_name = "threshold";
  cells[0].wall_seconds = 0.25;
  cells[0].peak_rss_kib = 1024;
  cells[1].index = 1;
  cells[1].spec.tag = "2";
  cells[1].spec.scheduler = "wsc";
  cells[1].status = runner::CellStatus::kFailed;
  cells[1].error = "boom";

  std::ostringstream os;
  runner::emit_cells(os, cells, runner::EmitFormat::kJson);
  const std::string out = os.str();
  // Spot-check the per-cell envelope; the embedded result object is covered
  // by RunResultToJsonSchema above.
  EXPECT_NE(out.find("[{\"index\":0,\"tag\":\"1\",\"scheduler\":\"static\","),
            std::string::npos);
  EXPECT_NE(out.find("\"status\":\"ok\",\"wall_seconds\":0.25,"
                     "\"peak_rss_kib\":1024,\"result\":{\"scheduler\":"),
            std::string::npos);
  EXPECT_NE(out.find("\"status\":\"failed\","), std::string::npos);
  EXPECT_NE(out.find("\"error\":\"boom\"}"), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

/// One sweep holding every row shape the tier columns have: a tier-free
/// cell, a fault cell with its fault-free twin (cell 0), a fault cell
/// without one, a cache-only cell, a reliability-only cell and a failed
/// cell.
std::vector<runner::CellResult> tier_cells() {
  const char* const schedulers[] = {"heuristic", "heuristic", "wsc",
                                    "static",    "random",    "mwis"};
  std::vector<runner::CellResult> cells(6);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    runner::CellResult& c = cells[i];
    c.index = i;
    c.spec.tag = "t" + std::to_string(i);
    c.spec.scheduler = schedulers[i];
    c.status = runner::CellStatus::kOk;
    c.wall_seconds = 0.125 * static_cast<double>(i + 1);
    c.peak_rss_kib = static_cast<long>(2048 + i);
    c.result.disk_stats.resize(1);
    c.result.disk_stats[0]
        .joules_in_state[static_cast<int>(disk::DiskState::Idle)] =
        100.0 + 10.5 * static_cast<double>(i);
    c.result.disk_stats[0].spin_ups = i;
    c.result.disk_stats[0].spin_downs = i;
    c.result.response_times.add(0.0625 * static_cast<double>(i + 1));
  }
  for (const std::size_t i : {1, 2}) {
    cells[i].spec.params.fault.mttf_seconds = 1000.0;
    cells[i].result.faults_enabled = true;
  }
  fault::FaultStats& f1 = cells[1].result.fault_stats;
  f1.unavailable_requests = 3;
  f1.degraded_seconds = 1.5;
  f1.degraded_episodes = 2;
  f1.rebuild_bytes = 1048576;
  fault::FaultStats& f2 = cells[2].result.fault_stats;
  f2.unavailable_requests = 5;
  f2.degraded_seconds = 0.1;
  f2.degraded_episodes = 3;
  cells[3].result.cache_enabled = true;
  cache::CacheStats& cs = cells[3].result.cache_stats;
  cs.lookups = 3;
  cs.hits_clean = 1;
  cs.destaged_blocks = 4;
  cs.memory_energy_joules = 2.5;
  cells[4].result.reliability_enabled = true;
  reliability::ReliabilityStats& rs = cells[4].result.reliability_stats;
  rs.deadline_misses = 2;
  rs.retries = 1;
  rs.hedge_wins = 1;
  rs.shed = 4;
  cells[5].status = runner::CellStatus::kFailed;
  cells[5].result = {};
  cells[5].error = "boom";
  return cells;
}

std::string emitted_cells(const std::vector<runner::CellResult>& cells,
                          runner::EmitFormat f) {
  std::ostringstream os;
  runner::emit_cells(os, cells, f);
  return os.str();
}

// Fault columns read zero on rows without the tier (the failed row too);
// cache and reliability columns are blank there. energy_delta_j is blank
// unless the row is a fault cell with a fault-free twin.
TEST(EmitterGolden, EmitCellsTierColumnsCsv) {
  EXPECT_EQ(
      emitted_cells(tier_cells(), runner::EmitFormat::kCsv),
      "# sweep cells\n"
      "index,tag,scheduler,status,wall_s,peak_rss_kib,total_energy_j,"
      "mean_resp_s,spin_up+down,unavailable,mean_degraded_s,rebuild_bytes,"
      "energy_delta_j,hit_ratio,destaged,mem_energy_j,deadline_miss,retries,"
      "hedge_wins,shed\n"
      "0,t0,heuristic,ok,0.125,2048,100,0.0625,0,0,0,0,,,,,,,,\n"
      "1,t1,heuristic,ok,0.25,2049,110.5,0.125,2,3,0.75,1048576,10.5,,,,,,,\n"
      "2,t2,wsc,ok,0.375,2050,121,0.1875,4,5,0.03333333333333333,0,,,,,,,,\n"
      "3,t3,static,ok,0.5,2051,131.5,0.25,6,0,0,0,,0.3333333333333333,4,2.5,,"
      ",,\n"
      "4,t4,random,ok,0.625,2052,142,0.3125,8,0,0,0,,,,,2,1,1,4\n"
      "5,t5,mwis,failed,0.75,2053,0,0,0,0,0,0,,,,,,,,\n");
}

TEST(EmitterGolden, EmitCellsTierColumnsTable) {
  EXPECT_EQ(emitted_cells(tier_cells(), runner::EmitFormat::kTable),
            "=== sweep cells ===\n"
            "index  tag  scheduler  status  wall_s  peak_rss_kib  "
            "total_energy_j  mean_resp_s  spin_up+down  unavailable  "
            "mean_degraded_s  rebuild_bytes  energy_delta_j  hit_ratio  "
            "destaged  mem_energy_j  deadline_miss  retries  hedge_wins  "
            "shed\n"
            "----------------------------------------------------------------"
            "----------------------------------------------------------------"
            "----------------------------------------------------------------"
            "----------------------------------------\n"
            "0      t0   heuristic  ok      0.125   2048          "
            "100.000         0.0625       0             0            "
            "0.0000           "
            "0                                                               "
            "                                          "
            "\n"
            "1      t1   heuristic  ok      0.250   2049          "
            "110.500         0.1250       2             3            "
            "0.7500           1048576        "
            "10.500                                                          "
            "                           "
            "\n"
            "2      t2   wsc        ok      0.375   2050          "
            "121.000         0.1875       4             5            "
            "0.0333           "
            "0                                                               "
            "                                          "
            "\n"
            "3      t3   static     ok      0.500   2051          "
            "131.500         0.2500       6             0            "
            "0.0000           0                              0.3333     "
            "4         2.500                                                 "
            "\n"
            "4      t4   random     ok      0.625   2052          "
            "142.000         0.3125       8             0            "
            "0.0000           "
            "0                                                                 "
            "2              1        1           4   \n"
            "5      t5   mwis       failed  0.750   2053          "
            "0.000           0.0000       0             0            "
            "0.0000           "
            "0                                                               "
            "                                          "
            "\n");
}

// Each tier's JSON object, in the fixed order faults, cache, reliability,
// write_offload, with every field in its literal order.
TEST(EmitterGolden, RunResultToJsonAllTiers) {
  storage::RunResult r;
  r.scheduler_name = "heuristic";
  r.policy_name = "2cpm";
  r.horizon = 4.0;
  r.total_requests = 2;
  r.faults_enabled = true;
  fault::FaultStats& f = r.fault_stats;
  f.disk_failures = 1;
  f.transient_timeouts = 2;
  f.latent_sector_events = 3;
  f.repairs = 4;
  f.unavailable_requests = 5;
  f.failovers = 6;
  f.rebuilds_completed = 7;
  f.rebuild_bytes = 8;
  f.rebuild_items_lost = 9;
  f.degraded_seconds = 2.5;
  f.degraded_episodes = 2;
  r.cache_enabled = true;
  cache::CacheStats& c = r.cache_stats;
  c.lookups = 8;
  c.hits_clean = 2;
  c.hits_dirty = 1;
  c.misses = 5;
  c.insertions = 11;
  c.evictions = 12;
  c.writes_buffered = 13;
  c.writes_through = 14;
  c.destage_batches = 15;
  c.destaged_blocks = 16;
  c.destage_piggyback = 17;
  c.destage_forced = 18;
  c.dirty_redirected = 19;
  c.dirty_lost = 20;
  c.lost_copies_dropped = 21;
  c.memory_energy_joules = 0.5;
  r.reliability_enabled = true;
  reliability::ReliabilityStats& rs = r.reliability_stats;
  rs.deadline_misses = 31;
  rs.retries = 32;
  rs.hedges_issued = 33;
  rs.hedge_wins = 34;
  rs.shed = 35;
  rs.writes_degraded = 36;
  rs.abandoned = 37;
  r.write_offload_enabled = true;
  core::WriteOffloadStats& w = r.write_offload_stats;
  w.writes_total = 41;
  w.writes_home = 42;
  w.writes_diverted = 43;
  w.writes_woke_home = 44;
  w.reads_redirected = 45;
  w.reclaims = 46;
  EXPECT_EQ(r.to_json(),
            "{\"scheduler\":\"heuristic\",\"policy\":\"2cpm\","
            "\"horizon_seconds\":4,\"num_disks\":0,\"total_requests\":2,"
            "\"requests_waited_spinup\":0,\"total_energy_joules\":0,"
            "\"spin_ups\":0,\"spin_downs\":0,"
            "\"response_seconds\":{\"count\":0},"
            "\"fleet_state_seconds\":{\"standby\":0,\"spin-up\":0,\"idle\":0,"
            "\"active\":0,\"spin-down\":0},\"faults\":{\"disk_failures\":1,"
            "\"transient_timeouts\":2,\"latent_sector_events\":3,"
            "\"repairs\":4,\"unavailable_requests\":5,\"failovers\":6,"
            "\"rebuilds_completed\":7,\"rebuild_bytes\":8,"
            "\"rebuild_items_lost\":9,\"degraded_seconds\":2.5,"
            "\"degraded_episodes\":2,\"mean_time_in_degraded\":1.25},"
            "\"cache\":{\"lookups\":8,\"hits_clean\":2,\"hits_dirty\":1,"
            "\"misses\":5,\"hit_ratio\":0.375,\"insertions\":11,"
            "\"evictions\":12,\"writes_buffered\":13,\"writes_through\":14,"
            "\"destage_batches\":15,\"destaged_blocks\":16,"
            "\"destage_piggyback\":17,\"destage_forced\":18,"
            "\"dirty_redirected\":19,\"dirty_lost\":20,"
            "\"lost_copies_dropped\":21,\"memory_energy_joules\":0.5},"
            "\"reliability\":{\"deadline_misses\":31,\"retries\":32,"
            "\"hedges_issued\":33,\"hedge_wins\":34,\"shed\":35,"
            "\"writes_degraded\":36,\"abandoned\":37},"
            "\"write_offload\":{\"writes_total\":41,\"writes_home\":42,"
            "\"writes_diverted\":43,\"writes_woke_home\":44,"
            "\"reads_redirected\":45,\"reclaims\":46}}");
}

std::vector<std::string> metric_names(runner::ExperimentBuilder b) {
  const auto cells = runner::SweepRunner().run(runner::product_grid(
      b.requests(300).metrics().build(), {"heuristic"}, {"x"}, nullptr));
  EXPECT_EQ(cells.at(0).status, runner::CellStatus::kOk);
  std::vector<std::string> names;
  const obs::MetricRegistry& m = *cells.at(0).result.metrics;
  for (std::size_t i = 0; i < m.size(); ++i) names.push_back(m.at(i).name);
  return names;
}

const std::vector<std::string> kMetricPrelude = {
    "requests_completed",     "requests_waited_spinup",
    "failovers",              "unavailable_requests",
    "batches_formed",         "batch_size",
    "queue_depth",            "response_seconds",
    "spin_ups",               "spin_downs",
    "total_energy_joules",    "energy_per_request_joules",
    "disk_seconds_standby",   "disk_seconds_spin-up",
    "disk_seconds_idle",      "disk_seconds_active",
    "disk_seconds_spin-down"};

std::vector<std::string> prelude_and(std::vector<std::string> tier) {
  std::vector<std::string> names = kMetricPrelude;
  names.insert(names.end(), tier.begin(), tier.end());
  return names;
}

// A one-tier registry is the fixed prelude followed by that tier's block.
TEST(EmitterGolden, CacheOnlyMetricNames) {
  cache::CacheConfig cc;
  cc.capacity_blocks = 64;
  cc.dirty_capacity_blocks = 16;
  EXPECT_EQ(metric_names(runner::ExperimentBuilder(runner::Workload::kCello)
                             .cache(cc)),
            prelude_and({"cache_hits", "cache_misses", "cache_writes_buffered",
                         "destage_batches", "destaged_blocks",
                         "dirty_occupancy", "cache_hit_ratio",
                         "cache_memory_energy_joules"}));
}

TEST(EmitterGolden, ReliabilityOnlyMetricNames) {
  reliability::ReliabilityConfig rc;
  rc.deadline_seconds = 5.0;
  EXPECT_EQ(metric_names(runner::ExperimentBuilder(runner::Workload::kCello)
                             .reliability(rc)),
            prelude_and({"deadline_misses", "retries", "hedges_issued",
                         "hedge_wins", "shed_requests",
                         "abandoned_requests"}));
}

TEST(EmitterGolden, TierFreeAndFaultOnlyMetricNamesAreThePrelude) {
  EXPECT_EQ(metric_names(runner::ExperimentBuilder(runner::Workload::kCello)),
            kMetricPrelude);
  EXPECT_EQ(metric_names(runner::ExperimentBuilder(runner::Workload::kCello)
                             .fail_disk_at(3, 1.0, 1.0)),
            kMetricPrelude);
}

TEST(JsonWriterGolden, QuotingAndNumbers) {
  EXPECT_EQ(util::json_quote("a\"b\\c\n\t\x01z"),
            "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
  EXPECT_EQ(util::json_number(0.1), "0.1");
  EXPECT_EQ(util::json_number(-3.0), "-3");
  EXPECT_EQ(util::json_number(1e300), "1e+300");
  // Non-finite values have no JSON literal; they degrade to null.
  EXPECT_EQ(util::json_number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(util::json_number(std::nan("")), "null");

  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.field("i", -5);
  w.field("u", static_cast<std::size_t>(18446744073709551615ull));
  w.field("b", true);
  w.key("n");
  w.null();
  w.key("raw");
  w.raw("[1,2]");
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\"i\":-5,\"u\":18446744073709551615,\"b\":true,\"n\":null,"
            "\"raw\":[1,2]}");
}

}  // namespace
}  // namespace eas
