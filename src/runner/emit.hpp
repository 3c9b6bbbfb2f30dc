// Result output for the experiment harnesses: the one path every bench,
// test and example prints through.
//
// Every bench builds the series its figure plots into a ResultTable and
// emits it in one of three stable formats: the aligned text table the
// paper-comparison docs quote (default), CSV for spreadsheet/plotting
// pipelines, or JSON for programmatic consumers; the examples print their
// tables untitled. A sweep's raw cells go out through emit_cells in the
// same formats, with each tier's columns taken from storage::kTierReports;
// its observability artifacts through write_chrome_trace and
// merged_metrics. The CSV/JSON schemas are covered by golden tests —
// changing them is a breaking change for downstream plotting scripts.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/sweep.hpp"

namespace eas::runner {

/// The three renderings. Schemas are golden-tested.
enum class EmitFormat { kTable, kCsv, kJson };

/// EAS_EMIT=table|csv|json, else `fallback` (unknown values fall back too
/// so a typo cannot silently hide a figure).
EmitFormat emit_format_from_env(EmitFormat fallback = EmitFormat::kTable);

/// A titled grid of cells that renders as an aligned table, CSV or JSON.
/// Numeric cells remember their exact double value: the text table rounds
/// for eyeballing against the paper, while CSV/JSON emit full precision for
/// downstream tooling.
class ResultTable {
 public:
  ResultTable(std::string title, std::vector<std::string> columns);

  /// Starts a new row; subsequent cell() calls fill it left to right. A row
  /// must end up with exactly one cell per column (checked at emit time).
  ResultTable& row();
  ResultTable& cell(std::string v);
  ResultTable& cell(const char* v) { return cell(std::string(v)); }
  /// `precision` only affects the aligned-table rendering.
  ResultTable& cell(double v, int precision = 3);
  ResultTable& cell(long long v);
  ResultTable& cell(unsigned long long v);
  ResultTable& cell(int v) { return cell(static_cast<long long>(v)); }
  ResultTable& cell(unsigned v) { return cell(static_cast<long long>(v)); }
  ResultTable& cell(std::size_t v) {
    return cell(static_cast<unsigned long long>(v));
  }

  const std::string& title() const { return title_; }
  std::size_t num_rows() const { return rows_.size(); }

  void emit(std::ostream& os, EmitFormat format) const;
  /// "=== title ===" header (none for an empty title) + the columns
  /// left-aligned two spaces apart under an underlined header.
  void emit_table(std::ostream& os) const;
  /// "# title" comment, header line, one row per line (RFC 4180 quoting).
  void emit_csv(std::ostream& os) const;
  /// {"title":...,"columns":[...],"rows":[{col: value, ...}, ...]}
  void emit_json(std::ostream& os) const;

 private:
  struct Cell {
    enum class Kind { kText, kDouble, kInt, kUint } kind = Kind::kText;
    std::string text;  // kText, and the pre-rounded table rendering
    double d = 0.0;
    long long i = 0;
    unsigned long long u = 0;
  };

  Cell& push(Cell c);

  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// Raw per-cell dump of a sweep — one record per cell with its identity
/// (index, tag, scheduler), execution metadata (status, wall seconds, peak
/// RSS) and the full RunResult serialization. The JSON form embeds
/// RunResult::to_json(); the CSV/table forms emit the headline metrics,
/// then the columns of each tier some OK cell enabled.
void emit_cells(std::ostream& os, const std::vector<CellResult>& results,
                EmitFormat format);

/// One Perfetto-loadable Chrome trace of the whole sweep: one "process" per
/// OK cell that recorded a trace (pid = cell index, named
/// "<tag>/<scheduler>"). Untraced and failed cells contribute nothing.
void write_chrome_trace(std::ostream& os,
                        const std::vector<CellResult>& results);

/// All OK cells' registries folded in cell-index order, so the result does
/// not depend on EAS_THREADS. Cells without metrics contribute nothing; an
/// all-off sweep yields an empty registry.
obs::MetricRegistry merged_metrics(const std::vector<CellResult>& results);

}  // namespace eas::runner
