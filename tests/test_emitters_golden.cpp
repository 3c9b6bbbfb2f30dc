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
