#include "trace/parsers.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <unordered_map>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace eas::trace {

namespace {

// Key for (device/ASU, block) -> dense DataId interning.
struct BlockKey {
  long long device;
  long long block;
  bool operator==(const BlockKey&) const = default;
};

struct BlockKeyHash {
  std::size_t operator()(const BlockKey& k) const {
    const auto h1 = std::hash<long long>{}(k.device);
    const auto h2 = std::hash<long long>{}(k.block);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};

using Interner = std::unordered_map<BlockKey, DataId, BlockKeyHash>;

DataId intern(Interner& map, long long device, long long block) {
  auto [it, inserted] = map.try_emplace(BlockKey{device, block},
                                        static_cast<DataId>(map.size()));
  return it->second;
}

// strtod happily parses "inf"/"nan" (and overflowing literals become +inf),
// but a non-finite timestamp would blow up far away, inside the simulator's
// schedule_at contract. Reject it here with the offending line number.
bool finite_time(const std::optional<double>& t) {
  return t.has_value() && std::isfinite(*t) && *t >= 0.0;
}

// Device ids are interned, so any value fits; direct DataId fields must fit
// the 32-bit id type (whose max is the kInvalidData sentinel) or the cast
// would silently wrap / forge the sentinel.
bool fits_data_id(long long v) {
  return v >= 0 && static_cast<unsigned long long>(v) <
                       std::numeric_limits<DataId>::max();
}

// Record sizes are held in 32 bits; a larger field is an error, never a
// silent truncation.
bool fits_size(const std::optional<long long>& v) {
  return v.has_value() && *v >= 0 &&
         static_cast<unsigned long long>(*v) <=
             std::numeric_limits<std::uint32_t>::max();
}

bool parse_opcode(std::string_view field, bool& is_read) {
  field = util::trim(field);
  if (field == "r" || field == "R" || field == "read" || field == "Read") {
    is_read = true;
    return true;
  }
  if (field == "w" || field == "W" || field == "write" || field == "Write") {
    is_read = false;
    return true;
  }
  return false;
}

/// Shared line-pump: `parse_line` returns true when it produced a record.
template <typename LineParser>
Trace pump(std::istream& in, const ParseOptions& opts, ParseReport* report,
           LineParser parse_line) {
  std::vector<TraceRecord> records;
  ParseReport local;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view sv = util::trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    TraceRecord rec;
    bool ok = false;
    std::string error;
    try {
      ok = parse_line(sv, rec, error);
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    }
    if (!ok) {
      if (error.empty()) error = "malformed record";
      if (!opts.lenient) throw TraceParseError(error, line_no);
      if (local.first_error_line == 0) {
        local.first_error_line = line_no;
        local.first_error = error;
      }
      ++local.skipped_malformed;
      continue;
    }
    rec.time *= opts.time_scale;
    if (opts.reads_only && !rec.is_read) {
      ++local.skipped_writes;
      continue;
    }
    records.push_back(rec);
    ++local.parsed;
    if (opts.max_records != 0 && local.parsed >= opts.max_records) break;
  }
  if (report) *report = local;
  return Trace(std::move(records)).rebased();
}

}  // namespace

Trace parse_spc(std::istream& in, const ParseOptions& opts,
                ParseReport* report) {
  Interner interner;
  return pump(in, opts, report,
              [&interner](std::string_view sv, TraceRecord& rec,
                          std::string& error) {
                const auto fields = util::split(sv, ',');
                if (fields.size() < 5) {
                  error = "expected 5 comma-separated fields (ASU,LBA,size,op,time)";
                  return false;
                }
                const auto asu = util::parse_int(fields[0]);
                const auto lba = util::parse_int(fields[1]);
                const auto size = util::parse_int(fields[2]);
                const auto time = util::parse_double(fields[4]);
                bool is_read = false;
                if (!asu || !lba) {
                  error = "unparseable SPC ASU/LBA";
                  return false;
                }
                if (!fits_size(size)) {
                  error = "bad SPC size field (must fit 32 bits)";
                  return false;
                }
                if (!parse_opcode(fields[3], is_read)) {
                  error = "bad SPC opcode (expected r/R/w/W)";
                  return false;
                }
                if (!finite_time(time)) {
                  error = "bad SPC timestamp (must be finite and >= 0)";
                  return false;
                }
                rec.time = *time;
                rec.data = intern(interner, *asu, *lba);
                rec.size_bytes = static_cast<std::uint32_t>(*size);
                rec.is_read = is_read;
                return true;
              });
}

Trace parse_cello_text(std::istream& in, const ParseOptions& opts,
                       ParseReport* report) {
  Interner interner;
  return pump(
      in, opts, report,
      [&interner](std::string_view sv, TraceRecord& rec, std::string& error) {
        // Collapse arbitrary whitespace into fields.
        std::vector<std::string_view> fields;
        std::size_t i = 0;
        while (i < sv.size()) {
          while (i < sv.size() && std::isspace(static_cast<unsigned char>(sv[i]))) ++i;
          std::size_t start = i;
          while (i < sv.size() && !std::isspace(static_cast<unsigned char>(sv[i]))) ++i;
          if (i > start) fields.push_back(sv.substr(start, i - start));
        }
        if (fields.size() < 5) {
          error = "expected 5 whitespace-separated fields (time dev block size r|w)";
          return false;
        }
        const auto time = util::parse_double(fields[0]);
        const auto dev = util::parse_int(fields[1]);
        const auto block = util::parse_int(fields[2]);
        const auto size = util::parse_int(fields[3]);
        bool is_read = false;
        if (!dev || !block) {
          error = "unparseable Cello device/block";
          return false;
        }
        if (!fits_size(size)) {
          error = "bad Cello size field (must fit 32 bits)";
          return false;
        }
        if (!parse_opcode(fields[4], is_read)) {
          error = "bad Cello opcode (expected r/R/w/W)";
          return false;
        }
        if (!finite_time(time)) {
          error = "bad Cello timestamp (must be finite and >= 0)";
          return false;
        }
        rec.time = *time;
        rec.data = intern(interner, *dev, *block);
        rec.size_bytes = static_cast<std::uint32_t>(*size);
        rec.is_read = is_read;
        return true;
      });
}

Trace parse_csv(std::istream& in, const ParseOptions& opts,
                ParseReport* report) {
  std::string header;
  if (!std::getline(in, header) ||
      util::trim(header) != "time,data,size,op") {
    throw TraceParseError("missing 'time,data,size,op' header", 1);
  }
  return pump(in, opts, report,
              [](std::string_view sv, TraceRecord& rec, std::string& error) {
                const auto fields = util::split(sv, ',');
                if (fields.size() != 4) {
                  error = "expected 4 comma-separated fields";
                  return false;
                }
                const auto time = util::parse_double(fields[0]);
                const auto data = util::parse_int(fields[1]);
                const auto size = util::parse_int(fields[2]);
                bool is_read = false;
                if (!data || !fits_data_id(*data)) {
                  error = "bad CSV data id (must fit 32-bit id)";
                  return false;
                }
                if (!fits_size(size)) {
                  error = "bad CSV size field (must fit 32 bits)";
                  return false;
                }
                if (!parse_opcode(fields[3], is_read)) {
                  error = "bad CSV opcode (expected r/R/w/W)";
                  return false;
                }
                if (!finite_time(time)) {
                  error = "bad CSV timestamp (must be finite and >= 0)";
                  return false;
                }
                rec.time = *time;
                rec.data = static_cast<DataId>(*data);
                rec.size_bytes = static_cast<std::uint32_t>(*size);
                rec.is_read = is_read;
                return true;
              });
}

void write_csv(std::ostream& out, const Trace& trace) {
  out << "time,data,size,op\n";
  for (const auto& r : trace.records()) {
    out << r.time << ',' << r.data << ',' << r.size_bytes << ','
        << (r.is_read ? 'r' : 'w') << '\n';
  }
}

Trace load_trace_file(const std::string& path, const ParseOptions& opts) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  const auto dot = path.find_last_of('.');
  const std::string ext =
      dot == std::string::npos ? "" : util::to_lower(path.substr(dot + 1));
  if (ext == "spc" || ext == "csv-spc") return parse_spc(in, opts);
  if (ext == "cello") return parse_cello_text(in, opts);
  if (ext == "csv") return parse_csv(in, opts);
  throw std::runtime_error("unknown trace extension ." + ext +
                           " (expected .spc, .cello or .csv): " + path);
}

}  // namespace eas::trace
