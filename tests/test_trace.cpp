// Tests for traces, parsers and the calibrated synthetic generators.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "trace/parsers.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace eas::trace {
namespace {

TEST(Trace, SortsRecordsByTime) {
  Trace t({{3.0, 0, 1, true}, {1.0, 1, 1, true}, {2.0, 2, 1, true}});
  EXPECT_DOUBLE_EQ(t[0].time, 1.0);
  EXPECT_DOUBLE_EQ(t[2].time, 3.0);
  EXPECT_DOUBLE_EQ(t.duration(), 2.0);
}

TEST(Trace, SortIsStableForEqualTimes) {
  Trace t({{1.0, 10, 1, true}, {1.0, 20, 1, true}, {1.0, 30, 1, true}});
  EXPECT_EQ(t[0].data, 10u);
  EXPECT_EQ(t[1].data, 20u);
  EXPECT_EQ(t[2].data, 30u);
}

TEST(Trace, UnsortedInputWithTiesSortsStably) {
  // Out of order, so the sort runs; the three records tied at 1.0 must keep
  // their input order.
  Trace t({{2.0, 1, 1, true}, {1.0, 2, 1, true}, {1.0, 3, 1, true},
           {1.0, 4, 1, true}});
  EXPECT_EQ(t[0].data, 2u);
  EXPECT_EQ(t[1].data, 3u);
  EXPECT_EQ(t[2].data, 4u);
  EXPECT_EQ(t[3].data, 1u);
}

TEST(Trace, RejectsNegativeTimes) {
  EXPECT_THROW(Trace({{-1.0, 0, 1, true}}), InvariantError);
}

TEST(Trace, ReadsOnlyDropsWrites) {
  Trace t({{1.0, 0, 1, true}, {2.0, 1, 1, false}, {3.0, 2, 1, true}});
  const auto reads = t.reads_only();
  EXPECT_EQ(reads.size(), 2u);
  for (const auto& r : reads.records()) EXPECT_TRUE(r.is_read);
}

TEST(Trace, PrefixAndRebase) {
  Trace t({{5.0, 0, 1, true}, {6.0, 1, 1, true}, {9.0, 2, 1, true}});
  const auto p = t.prefix(2);
  EXPECT_EQ(p.size(), 2u);
  const auto r = p.rebased();
  EXPECT_DOUBLE_EQ(r.start_time(), 0.0);
  EXPECT_DOUBLE_EQ(r.end_time(), 1.0);
}

TEST(Trace, PrefixLargerThanSizeIsWholeTrace) {
  Trace t({{1.0, 0, 1, true}});
  EXPECT_EQ(t.prefix(100).size(), 1u);
}

TEST(Trace, DensifyRemapsInFirstAppearanceOrder) {
  Trace t({{1.0, 500, 1, true}, {2.0, 7, 1, true}, {3.0, 500, 1, true}});
  const auto d = t.densified();
  EXPECT_EQ(d[0].data, 0u);
  EXPECT_EQ(d[1].data, 1u);
  EXPECT_EQ(d[2].data, 0u);
  EXPECT_EQ(d.data_universe_size(), 2u);
}

TEST(Trace, StatsCountDistinctDataAndRates) {
  Trace t({{0.0, 0, 1, true}, {1.0, 0, 1, true}, {2.0, 1, 1, true}});
  const auto s = t.compute_stats();
  EXPECT_EQ(s.num_records, 3u);
  EXPECT_EQ(s.num_distinct_data, 2u);
  EXPECT_DOUBLE_EQ(s.duration_seconds, 2.0);
  EXPECT_DOUBLE_EQ(s.mean_interarrival, 1.0);
  EXPECT_DOUBLE_EQ(s.mean_rate, 1.5);
}

// ---------------------------------------------------------------- parsers

TEST(SpcParser, ParsesFinancialFormatAndDensifies) {
  std::istringstream in(
      "0,1234,4096,r,0.5\n"
      "0,5678,8192,W,1.0\n"
      "1,1234,4096,R,2.0\n");
  ParseReport report;
  ParseOptions opts;
  opts.reads_only = false;
  const auto t = parse_spc(in, opts, &report);
  EXPECT_EQ(report.parsed, 3u);
  EXPECT_EQ(t.size(), 3u);
  // (ASU 0, LBA 1234) and (ASU 1, LBA 1234) must be distinct data.
  EXPECT_NE(t[0].data, t[2].data);
  EXPECT_FALSE(t[1].is_read);
  EXPECT_EQ(t[1].size_bytes, 8192u);
  EXPECT_DOUBLE_EQ(t.start_time(), 0.0);  // rebased
}

TEST(SpcParser, ReadsOnlyFiltersWrites) {
  std::istringstream in(
      "0,1,512,r,0.0\n"
      "0,2,512,w,1.0\n");
  ParseReport report;
  const auto t = parse_spc(in, {}, &report);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(report.skipped_writes, 1u);
}

TEST(SpcParser, StrictModeThrowsWithLineNumber) {
  std::istringstream in(
      "0,1,512,r,0.0\n"
      "garbage line\n");
  try {
    parse_spc(in, {});
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(SpcParser, LenientModeSkipsAndCounts) {
  std::istringstream in(
      "0,1,512,r,0.0\n"
      "bogus\n"
      "0,2,512,r,1.0\n");
  ParseOptions opts;
  opts.lenient = true;
  ParseReport report;
  const auto t = parse_spc(in, opts, &report);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(report.skipped_malformed, 1u);
}

TEST(SpcParser, HonoursMaxRecordsAndTimeScale) {
  std::istringstream in(
      "0,1,512,r,1000\n"
      "0,2,512,r,2000\n"
      "0,3,512,r,3000\n");
  ParseOptions opts;
  opts.max_records = 2;
  opts.time_scale = 1e-3;  // ms -> s
  const auto t = parse_spc(in, opts);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.duration(), 1.0);
}

TEST(SpcParser, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "0,1,512,r,0.0\n");
  EXPECT_EQ(parse_spc(in, {}).size(), 1u);
}

TEST(CelloParser, ParsesWhitespaceFormat) {
  std::istringstream in(
      "0.25  3  8800  2048  r\n"
      "0.50  3  8800  2048  w\n"
      "0.75  4  8800  2048  r\n");
  ParseOptions opts;
  opts.reads_only = false;
  const auto t = parse_cello_text(in, opts);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].data, t[1].data);  // same device+block
  EXPECT_NE(t[0].data, t[2].data);  // different device
}

TEST(CelloParser, RejectsShortLines) {
  std::istringstream in("0.25 3 8800\n");
  EXPECT_THROW(parse_cello_text(in, {}), TraceParseError);
}

TEST(CsvRoundTrip, WriteThenParseIsIdentity) {
  Trace original({{0.0, 3, 4096, true},
                  {1.5, 9, 512, true},
                  {2.25, 3, 1024, true}});
  std::ostringstream out;
  write_csv(out, original);
  std::istringstream in(out.str());
  const auto parsed = parse_csv(in, {});
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed[i].time, original[i].time);
    EXPECT_EQ(parsed[i].data, original[i].data);
    EXPECT_EQ(parsed[i].size_bytes, original[i].size_bytes);
  }
}

TEST(CsvParser, RequiresHeader) {
  std::istringstream in("0.0,1,512,r\n");
  EXPECT_THROW(parse_csv(in, {}), TraceParseError);
}

// --------------------------------------------------- corrupt-input fixtures
//
// The parsers feed the simulator, whose schedule_at contract requires
// finite non-negative times; anything non-finite must die here, at the
// parse boundary, with a line number — not deep inside the event loop.

TEST(ParserHardening, NonFiniteTimesRejectedWithLineNumber) {
  const char* bad_times[] = {"inf", "-inf", "nan", "1e999"};
  for (const char* t : bad_times) {
    std::istringstream spc(std::string("0,1,512,r,") + t + "\n");
    try {
      parse_spc(spc, {});
      FAIL() << "SPC accepted timestamp " << t;
    } catch (const TraceParseError& e) {
      EXPECT_EQ(e.line(), 1u) << t;
    }
    std::istringstream cello(std::string(t) + " 3 8800 2048 r\n");
    EXPECT_THROW(parse_cello_text(cello, {}), TraceParseError) << t;
    std::istringstream csv(std::string("time,data,size,op\n") + t +
                           ",1,512,r\n");
    EXPECT_THROW(parse_csv(csv, {}), TraceParseError) << t;
  }
}

TEST(ParserHardening, NegativeTimeAndSizeRejected) {
  std::istringstream neg_time("0,1,512,r,-2.0\n");
  EXPECT_THROW(parse_spc(neg_time, {}), TraceParseError);
  std::istringstream neg_size("0,1,-512,r,2.0\n");
  EXPECT_THROW(parse_spc(neg_size, {}), TraceParseError);
}

TEST(ParserHardening, CsvDataIdMustFit32Bits) {
  // 2^32 would silently wrap to 0 through the DataId cast, and 2^32 - 1
  // would forge the kInvalidData sentinel.
  std::istringstream wrap("time,data,size,op\n1.0,4294967296,512,r\n");
  EXPECT_THROW(parse_csv(wrap, {}), TraceParseError);
  std::istringstream sentinel("time,data,size,op\n1.0,4294967295,512,r\n");
  EXPECT_THROW(parse_csv(sentinel, {}), TraceParseError);
  std::istringstream ok("time,data,size,op\n1.0,4294967294,512,r\n");
  EXPECT_EQ(parse_csv(ok, {}).size(), 1u);
}

TEST(ParserHardening, SizeMustFit32Bits) {
  // Records hold their size in 32 bits: 2^32 must be rejected with a message
  // naming the size field, never truncated to 0; 2^32 - 1 still fits.
  struct Case {
    const char* format;
    Trace (*parse)(std::istream&, const ParseOptions&, ParseReport*);
    std::string too_big;
    std::string fits;
  };
  const Case cases[] = {
      {"SPC", parse_spc, "0,1,4294967296,r,0.0\n", "0,1,4294967295,r,0.0\n"},
      {"Cello", parse_cello_text, "0.0 0 1 4294967296 r\n",
       "0.0 0 1 4294967295 r\n"},
      {"CSV", parse_csv, "time,data,size,op\n0.0,1,4294967296,r\n",
       "time,data,size,op\n0.0,1,4294967295,r\n"},
  };
  for (const auto& c : cases) {
    std::istringstream too_big(c.too_big);
    try {
      c.parse(too_big, {}, nullptr);
      ADD_FAILURE() << c.format << " accepted a 2^32-byte size";
    } catch (const TraceParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(c.format) + " size"), std::string::npos)
          << what;
      EXPECT_NE(what.find("32 bits"), std::string::npos) << what;
    }
    std::istringstream fits(c.fits);
    const auto t = c.parse(fits, {}, nullptr);
    ASSERT_EQ(t.size(), 1u) << c.format;
    EXPECT_EQ(t[0].size_bytes, 4294967295u) << c.format;
  }
}

TEST(ParserHardening, LenientReportCarriesFirstErrorDetail) {
  std::istringstream in(
      "0,1,512,r,0.0\n"
      "0,1,512,r,nan\n"
      "total junk\n");
  ParseOptions opts;
  opts.lenient = true;
  ParseReport report;
  const auto t = parse_spc(in, opts, &report);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(report.skipped_malformed, 2u);
  EXPECT_EQ(report.first_error_line, 2u);
  EXPECT_NE(report.first_error.find("timestamp"), std::string::npos)
      << report.first_error;
}

TEST(ParserHardening, ErrorMessagesNameTheBadField) {
  struct Case {
    const char* line;
    const char* expect;  // substring of the error message
  };
  const Case cases[] = {
      {"x,1,512,r,0.0", "ASU"},
      {"0,1,zz,r,0.0", "size"},
      {"0,1,512,q,0.0", "opcode"},
      {"0,1,512,r,later", "timestamp"},
  };
  for (const auto& c : cases) {
    std::istringstream in(std::string(c.line) + "\n");
    try {
      parse_spc(in, {});
      FAIL() << "accepted: " << c.line;
    } catch (const TraceParseError& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
          << c.line << " -> " << e.what();
    }
  }
}

TEST(ParserHardening, FuzzedCorruptionNeverCrashesLenientParsers) {
  // Deterministic fuzz: mutate valid lines (truncate, splice binary bytes,
  // duplicate fields, swap separators) and require that lenient parsing
  // never throws and every surviving record is simulator-safe.
  const std::string seeds[] = {
      "0,1234,4096,r,0.5", "1,5678,512,w,2.25", "2,9,65536,R,10.0"};
  std::uint64_t state = 0x2545F4914F6CDD1DULL;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::ostringstream fixture;
  for (int i = 0; i < 500; ++i) {
    std::string line = seeds[next() % 3];
    switch (next() % 5) {
      case 0:
        line = line.substr(0, next() % (line.size() + 1));  // truncate
        break;
      case 1:
        line[next() % line.size()] =
            static_cast<char>(next() % 256);  // byte flip (may be NUL)
        break;
      case 2:
        line += "," + line;  // field duplication
        break;
      case 3:
        for (auto& ch : line) {
          if (ch == ',') ch = ';';  // wrong separator
        }
        break;
      case 4:
        break;  // leave valid
    }
    fixture << line << "\n";
  }
  ParseOptions opts;
  opts.lenient = true;
  opts.reads_only = false;
  ParseReport report;
  std::istringstream in(fixture.str());
  Trace t(std::vector<TraceRecord>{});
  ASSERT_NO_THROW(t = parse_spc(in, opts, &report));
  EXPECT_EQ(report.parsed, t.size());
  EXPECT_GT(report.parsed, 0u);        // the untouched lines survive
  EXPECT_GT(report.skipped_malformed, 0u);
  for (const auto& r : t.records()) {
    EXPECT_TRUE(std::isfinite(r.time));
    EXPECT_GE(r.time, 0.0);
  }
}

// ------------------------------------------------------------- synthetic

TEST(Synthetic, ProducesRequestedScale) {
  SyntheticTraceConfig cfg;
  cfg.num_requests = 5000;
  cfg.num_data = 1000;
  const auto t = make_synthetic_trace(cfg);
  EXPECT_EQ(t.size(), 5000u);
  const auto s = t.compute_stats();
  EXPECT_GT(s.num_distinct_data, 500u);
  EXPECT_LE(t.data_universe_size(), 1000u);
  for (const auto& r : t.records()) EXPECT_TRUE(r.is_read);
}

TEST(Synthetic, DeterministicInSeed) {
  SyntheticTraceConfig cfg;
  cfg.num_requests = 1000;
  cfg.seed = 9;
  const auto a = make_synthetic_trace(cfg);
  const auto b = make_synthetic_trace(cfg);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].data, b[i].data);
  }
}

TEST(Synthetic, MeanRateIsRespected) {
  SyntheticTraceConfig cfg;
  cfg.num_requests = 40000;
  cfg.mean_rate = 25.0;
  cfg.burst_rate_multiplier = 10.0;
  cfg.burst_time_fraction = 0.1;
  const auto s = make_synthetic_trace(cfg).compute_stats();
  EXPECT_NEAR(s.mean_rate, 25.0, 5.0);
}

TEST(Synthetic, PlainPoissonHasUnitCv) {
  SyntheticTraceConfig cfg;
  cfg.num_requests = 40000;
  cfg.burst_rate_multiplier = 1.0;  // degenerate MMPP == Poisson
  const auto s = make_synthetic_trace(cfg).compute_stats();
  EXPECT_NEAR(s.interarrival_cv, 1.0, 0.05);
}

TEST(Synthetic, CelloIsBurstierThanFinancial) {
  // The load-bearing property from §A.4: Cello's interarrival CV is far
  // above Financial1's, which itself stays near Poisson.
  const auto cello = make_cello_like(1).prefix(40000).compute_stats();
  const auto financial = make_financial_like(1).prefix(40000).compute_stats();
  EXPECT_GT(cello.interarrival_cv, 2.0);
  EXPECT_LT(financial.interarrival_cv, 1.5);
  EXPECT_GT(cello.interarrival_cv, financial.interarrival_cv * 1.5);
}

TEST(Synthetic, PopularityIsZipfSkewed) {
  const auto s = make_cello_like(1).prefix(40000).compute_stats();
  // Top 1% of data items should draw a disproportionate share of accesses.
  EXPECT_GT(s.top1pct_access_share, 0.15);
}

TEST(Synthetic, ValidatesConfig) {
  SyntheticTraceConfig cfg;
  cfg.mean_rate = 0.0;
  EXPECT_THROW(make_synthetic_trace(cfg), InvariantError);
  cfg = {};
  cfg.burst_rate_multiplier = 0.5;
  EXPECT_THROW(make_synthetic_trace(cfg), InvariantError);
  cfg = {};
  cfg.burst_time_fraction = 1.0;
  EXPECT_THROW(make_synthetic_trace(cfg), InvariantError);
  // Record sizes are 32-bit: a block of 2^32 bytes must not be truncated.
  cfg = {};
  cfg.num_requests = 10;
  cfg.block_bytes = 4294967296UL;
  EXPECT_THROW(make_synthetic_trace(cfg), InvariantError);
  cfg.block_bytes = 4294967295UL;
  const auto t = make_synthetic_trace(cfg);
  ASSERT_EQ(t.size(), 10u);
  EXPECT_EQ(t[0].size_bytes, 4294967295u);
}

/// FNV-1a over the bits of every field of every record: time, data id,
/// size and read flag. One value that moves if any record does.
std::uint64_t record_hash(const Trace& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& r : t.records()) {
    std::uint64_t time_bits = 0;
    std::memcpy(&time_bits, &r.time, sizeof time_bits);
    mix(time_bits);
    mix(r.data);
    mix(r.size_bytes);
    mix(r.is_read ? 1u : 0u);
  }
  return h;
}

// Recorded on the generator as it stood before the sort check, the guide
// table and the 32-bit record size: every record of both presets must stay
// bit-identical.
TEST(Synthetic, TracesMatchParentHashes) {
  auto cello = cello_like_config(1);
  cello.num_requests = 100000;
  const auto c = make_synthetic_trace(cello);
  ASSERT_EQ(c.size(), 100000u);
  EXPECT_EQ(record_hash(c), 7695049573376535305ULL);

  auto financial = financial_like_config(1);
  financial.num_requests = 100000;
  financial.write_fraction = 0.3;
  const auto f = make_synthetic_trace(financial);
  ASSERT_EQ(f.size(), 100000u);
  EXPECT_EQ(record_hash(f), 9416827907782150457ULL);
}

}  // namespace
}  // namespace eas::trace
