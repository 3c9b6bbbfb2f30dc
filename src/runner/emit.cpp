#include "runner/emit.hpp"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <variant>

#include "util/check.hpp"
#include "util/json.hpp"

namespace eas::runner {

EmitFormat emit_format_from_env(EmitFormat fallback) {
  const char* env = std::getenv("EAS_EMIT");
  if (env == nullptr) return fallback;
  const std::string_view v(env);
  if (v == "table") return EmitFormat::kTable;
  if (v == "csv") return EmitFormat::kCsv;
  if (v == "json") return EmitFormat::kJson;
  return fallback;
}

ResultTable::ResultTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {
  EAS_REQUIRE_MSG(!columns_.empty(), "result table needs at least one column");
}

ResultTable& ResultTable::row() {
  if (!rows_.empty()) {
    EAS_ENSURE_MSG(rows_.back().size() == columns_.size(),
                  "row " << rows_.size() - 1 << " has " << rows_.back().size()
                         << " cells, expected " << columns_.size());
  }
  rows_.emplace_back();
  return *this;
}

ResultTable::Cell& ResultTable::push(Cell c) {
  EAS_REQUIRE_MSG(!rows_.empty(), "cell() before row()");
  EAS_REQUIRE_MSG(rows_.back().size() < columns_.size(),
                "too many cells in row " << rows_.size() - 1);
  rows_.back().push_back(std::move(c));
  return rows_.back().back();
}

ResultTable& ResultTable::cell(std::string v) {
  Cell c;
  c.kind = Cell::Kind::kText;
  c.text = std::move(v);
  push(std::move(c));
  return *this;
}

ResultTable& ResultTable::cell(double v, int precision) {
  Cell c;
  c.kind = Cell::Kind::kDouble;
  c.d = v;
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  c.text = os.str();
  push(std::move(c));
  return *this;
}

ResultTable& ResultTable::cell(long long v) {
  Cell c;
  c.kind = Cell::Kind::kInt;
  c.i = v;
  c.text = std::to_string(v);
  push(std::move(c));
  return *this;
}

ResultTable& ResultTable::cell(unsigned long long v) {
  Cell c;
  c.kind = Cell::Kind::kUint;
  c.u = v;
  c.text = std::to_string(v);
  push(std::move(c));
  return *this;
}

void ResultTable::emit(std::ostream& os, EmitFormat format) const {
  if (!rows_.empty()) {
    EAS_ENSURE_MSG(rows_.back().size() == columns_.size(),
                  "last row has " << rows_.back().size()
                                  << " cells, expected " << columns_.size());
  }
  switch (format) {
    case EmitFormat::kTable:
      emit_table(os);
      return;
    case EmitFormat::kCsv:
      emit_csv(os);
      return;
    case EmitFormat::kJson:
      emit_json(os);
      return;
  }
}

void ResultTable::emit_table(std::ostream& os) const {
  if (!title_.empty()) os << "=== " << title_ << " ===\n";
  // Left-aligned columns two spaces apart, each as wide as its widest cell,
  // under an underlined header.
  std::vector<std::size_t> widths;
  for (const auto& c : columns_) widths.push_back(c.size());
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      widths[i] = std::max(widths[i], r[i].text.size());
    }
  }
  const auto print = [&](std::size_t i, const std::string& v) {
    os << std::left << std::setw(static_cast<int>(widths[i])) << v
       << (i + 1 < widths.size() ? "  " : "\n");
  };
  for (std::size_t i = 0; i < columns_.size(); ++i) print(i, columns_[i]);
  std::size_t total = 2 * (widths.size() - 1);
  for (const std::size_t w : widths) total += w;
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      print(i, i < r.size() ? r[i].text : std::string());
    }
  }
}

namespace {

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

void ResultTable::emit_csv(std::ostream& os) const {
  if (!title_.empty()) os << "# " << title_ << "\n";
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    os << (i > 0 ? "," : "") << csv_quote(columns_[i]);
  }
  os << "\n";
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (i > 0) os << ',';
      const Cell& c = r[i];
      switch (c.kind) {
        case Cell::Kind::kText:
          os << csv_quote(c.text);
          break;
        case Cell::Kind::kDouble:
          os << util::json_number(c.d);  // shortest round-trip form
          break;
        case Cell::Kind::kInt:
          os << c.i;
          break;
        case Cell::Kind::kUint:
          os << c.u;
          break;
      }
    }
    os << "\n";
  }
}

void ResultTable::emit_json(std::ostream& os) const {
  util::JsonWriter w(os);
  w.begin_object();
  w.field("title", title_);
  w.key("columns");
  w.begin_array();
  for (const auto& c : columns_) w.value(c);
  w.end_array();
  w.key("rows");
  w.begin_array();
  for (const auto& r : rows_) {
    w.begin_object();
    for (std::size_t i = 0; i < r.size(); ++i) {
      w.key(columns_[i]);
      const Cell& c = r[i];
      switch (c.kind) {
        case Cell::Kind::kText:
          w.value(c.text);
          break;
        case Cell::Kind::kDouble:
          w.value(c.d);
          break;
        case Cell::Kind::kInt:
          w.value(c.i);
          break;
        case Cell::Kind::kUint:
          w.value(c.u);
          break;
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

namespace {

const char* to_string(CellStatus s) {
  switch (s) {
    case CellStatus::kOk:
      return "ok";
    case CellStatus::kFailed:
      return "failed";
    case CellStatus::kSkipped:
      return "skipped";
  }
  return "?";
}

/// Fault-free twin of `r`: the first OK cell with the same scheduler, the
/// same trace and placement, and params matching r's with the fault profile
/// cleared. describe() omits the seeds and any caller-supplied trace, but
/// SweepRunner shares one input object per distinct (seeds, shape), so equal
/// pointers mean equal inputs. Availability sweeps run both variants side by
/// side, so the twin usually exists; nullptr when the sweep only ran the
/// degraded cells.
const CellResult* fault_free_twin(const std::vector<CellResult>& results,
                                  const CellResult& r) {
  ExperimentParams stripped = r.spec.params;
  stripped.fault = {};
  const std::string wanted = describe(stripped);
  for (const auto& c : results) {
    if (c.status != CellStatus::kOk || c.result.faults_enabled) continue;
    if (c.spec.scheduler == r.spec.scheduler &&
        c.spec.trace == r.spec.trace && c.spec.placement == r.spec.placement &&
        describe(c.spec.params) == wanted) {
      return &c;
    }
  }
  return nullptr;
}

}  // namespace

void emit_cells(std::ostream& os, const std::vector<CellResult>& results,
                EmitFormat format) {
  if (format == EmitFormat::kJson) {
    util::JsonWriter w(os);
    w.begin_array();
    for (const auto& r : results) {
      w.begin_object();
      w.field("index", static_cast<std::uint64_t>(r.index));
      w.field("tag", r.spec.tag);
      w.field("scheduler", r.spec.scheduler);
      w.field("params", describe(r.spec.params));
      w.field("status", to_string(r.status));
      w.field("wall_seconds", r.wall_seconds);
      w.field("peak_rss_kib", static_cast<std::int64_t>(r.peak_rss_kib));
      if (r.status == CellStatus::kFailed) w.field("error", r.error);
      if (r.status == CellStatus::kOk) {
        if (r.result.faults_enabled) {
          if (const CellResult* twin = fault_free_twin(results, r)) {
            w.field("energy_delta_vs_fault_free_j",
                    r.result.total_energy() - twin->result.total_energy());
          }
        }
        w.key("result");
        w.raw(r.result.to_json());
      }
      w.end_object();
    }
    w.end_array();
    os << "\n";
    return;
  }

  // Each tier's columns appear only when some OK cell enabled it, so
  // tier-free sweep output keeps the historical schema byte for byte.
  std::vector<std::string> columns = {
      "index", "tag", "scheduler", "status", "wall_s", "peak_rss_kib",
      "total_energy_j", "mean_resp_s", "spin_up+down"};
  std::vector<const storage::TierReport*> shown;
  for (const storage::TierReport& tier : storage::kTierReports) {
    if (std::any_of(results.begin(), results.end(), [&](const CellResult& r) {
          return r.status == CellStatus::kOk && r.result.*tier.enabled;
        })) {
      shown.push_back(&tier);
      for (const storage::TierStat& c : tier.columns) columns.push_back(c.name);
    }
  }
  ResultTable t("sweep cells", std::move(columns));
  for (const auto& r : results) {
    const bool ok = r.status == CellStatus::kOk;
    t.row()
        .cell(r.index)
        .cell(r.spec.tag)
        .cell(r.spec.scheduler)
        .cell(to_string(r.status))
        .cell(r.wall_seconds, 3)
        .cell(static_cast<long long>(r.peak_rss_kib))
        .cell(ok ? r.result.total_energy() : 0.0)
        .cell(ok ? r.result.mean_response() : 0.0, 4)
        .cell(ok ? r.result.total_spin_ups() + r.result.total_spin_downs()
                 : 0);
    // A cell that did not run holds an empty result: zeros, where shown.
    for (const storage::TierReport* tier : shown) {
      const bool on = ok && r.result.*tier->enabled;
      for (const storage::TierStat& c : tier->columns) {
        const CellResult* twin =
            on && c.value == nullptr ? fault_free_twin(results, r) : nullptr;
        if (twin != nullptr) {  // energy_delta_j
          t.cell(r.result.total_energy() - twin->result.total_energy());
        } else if (c.value == nullptr || (!on && tier->blank_when_off)) {
          t.cell("");  // no twin, or the tier is off: blank, not a zero
        } else if (const auto v = c.value(r.result); v.index() == 0) {
          t.cell(std::get<std::uint64_t>(v));  // a count
        } else {
          t.cell(std::get<double>(v), c.precision);
        }
      }
    }
  }
  t.emit(os, format);
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<CellResult>& results) {
  util::JsonWriter w(os);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (const CellResult& r : results) {
    if (r.status != CellStatus::kOk || r.result.trace_recorder == nullptr) {
      continue;
    }
    r.result.trace_recorder->append_chrome_events(
        w, static_cast<int>(r.index), r.spec.tag + "/" + r.spec.scheduler,
        r.result.horizon);
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

obs::MetricRegistry merged_metrics(const std::vector<CellResult>& results) {
  obs::MetricRegistry merged;
  for (const CellResult& r : results) {
    if (r.status != CellStatus::kOk || r.result.metrics == nullptr) continue;
    merged.merge(*r.result.metrics);
  }
  return merged;
}

}  // namespace eas::runner
