// Tests for summary statistics, sample stores and the log histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"
#include "util/pages.hpp"
#include "util/rng.hpp"

namespace eas::stats {
namespace {

TEST(SummaryStats, EmptyIsAllZero) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(SummaryStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  SummaryStats s;
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 6.2);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  double var = 0.0;
  for (double x : xs) var += (x - 6.2) * (x - 6.2);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.variance(), var, 1e-12);
}

TEST(SummaryStats, MergeEqualsSequentialFeed) {
  util::Rng rng(5);
  SummaryStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 3.0);
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(SummaryStats, MergeWithEmptyIsIdentity) {
  SummaryStats a, empty;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  SummaryStats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(SummaryStats, NumericallyStableOnLargeOffsets) {
  SummaryStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2));
  EXPECT_NEAR(s.variance(), 0.2502, 0.01);
}

TEST(SampleStore, QuantilesInterpolate) {
  SampleStore s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0 / 3.0), 2.0);
}

TEST(SampleStore, QuantileOfSingleSample) {
  SampleStore s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.p99(), 7.0);
}

TEST(SampleStore, QuantileOnEmptyThrows) {
  SampleStore s;
  EXPECT_THROW(s.quantile(0.5), InvariantError);
}

TEST(SampleStore, FractionAboveIsExclusive) {
  SampleStore s;
  for (double x : {1.0, 2.0, 2.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.fraction_above(0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.fraction_above(2.0), 0.25);  // strictly greater
  EXPECT_DOUBLE_EQ(s.fraction_above(3.0), 0.0);
  SampleStore empty;
  EXPECT_DOUBLE_EQ(empty.fraction_above(1.0), 0.0);
}

TEST(SampleStore, SortedIsAscendingAndStableAcrossCalls) {
  SampleStore s;
  for (double x : {3.0, 1.0, 2.0}) s.add(x);
  const auto& first = s.sorted();
  EXPECT_EQ(first, (std::vector<double>{1.0, 2.0, 3.0}));
  s.add(0.5);
  EXPECT_EQ(s.sorted().front(), 0.5);
}

TEST(SampleStore, MeanMatchesSum) {
  SampleStore s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

// quantile() selects in the buffer while it is unsorted and indexes it once
// sorted() has run; the two paths must agree bit for bit.
struct StoreShape {
  std::string name;
  std::vector<double> samples;
};

std::vector<StoreShape> store_shapes() {
  util::Rng rng(17);
  std::vector<StoreShape> shapes(4);
  shapes[0].name = "all-distinct";
  for (int i = 0; i < 1001; ++i) {
    shapes[0].samples.push_back(rng.uniform(0.0, 3.0));
  }
  shapes[1].name = "duplicate-heavy";
  for (int i = 0; i < 1000; ++i) {
    shapes[1].samples.push_back(0.25 * static_cast<double>(rng.next_below(5)));
  }
  shapes[2] = {"single-sample", {0.75}};
  shapes[3] = {"two-samples", {2.5, 0.5}};
  return shapes;
}

SampleStore store_of(const std::vector<double>& samples) {
  SampleStore s;
  for (double x : samples) s.add(x);
  return s;
}

constexpr double kQs[] = {0.0, 0.5, 0.9, 0.99, 1.0};

TEST(SampleStore, SelectedQuantilesMatchSortedOnesBitForBit) {
  for (const StoreShape& shape : store_shapes()) {
    const SampleStore s = store_of(shape.samples);
    const double mean_before = s.mean();
    std::vector<std::uint64_t> selected;
    for (double q : kQs) {
      selected.push_back(std::bit_cast<std::uint64_t>(s.quantile(q)));
    }
    std::vector<double> expected = shape.samples;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(s.sorted(), expected) << shape.name;
    for (std::size_t i = 0; i < std::size(kQs); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.quantile(kQs[i])), selected[i])
          << shape.name << " q=" << kQs[i];
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.mean()),
              std::bit_cast<std::uint64_t>(mean_before))
        << shape.name;
  }
}

TEST(SampleStore, SelectionInAnyQueryOrderMatchesInterpolatedSortedValues) {
  for (const StoreShape& shape : store_shapes()) {
    std::vector<double> sorted = shape.samples;
    std::sort(sorted.begin(), sorted.end());
    const SampleStore s = store_of(shape.samples);
    // Each query starts from the buffer the previous selection left; the
    // scrambled sweep lands `lo` both inside and at the edge of the
    // partitions earlier selections left behind.
    std::vector<double> qs = {0.99, 0.0, 1.0, 0.5, 0.9, 0.5};
    for (int k = 0; k <= 40; ++k) qs.push_back((k * 17 % 41) / 40.0);
    for (double q : qs) {
      const double pos = q * static_cast<double>(sorted.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const double frac = pos - static_cast<double>(lo);
      const double want =
          lo + 1 >= sorted.size()
              ? sorted.back()
              : sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.quantile(q)),
                std::bit_cast<std::uint64_t>(want))
          << shape.name << " q=" << q;
    }
  }
}

TEST(SampleStore, AddAfterSelectionInvalidatesTheCache) {
  SampleStore s = store_of({3.0, 1.0, 2.0});
  EXPECT_EQ(s.quantile(1.0), 3.0);
  s.add(4.0);
  EXPECT_EQ(s.quantile(1.0), 4.0);
  EXPECT_EQ(s.median(), 2.5);
  s.add(0.0);
  EXPECT_EQ(s.sorted(), (std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0}));
}

// --- differential: SampleStore against a naive reference -------------------
//
// The reference keeps the samples in an insertion-order vector, sums them in
// that order for the mean and reads quantiles from a sorted copy. The pools
// add signed zeros, subnormals and values near 1e300 to store_shapes(), so
// summing in any other order changes the mean's bits.

std::vector<StoreShape> differential_pools() {
  std::vector<StoreShape> pools = store_shapes();
  const double tiny = std::numeric_limits<double>::denorm_min();
  pools.push_back({"signed-zeros", {0.0, -0.0, 0.0, -0.0, 0.25, -0.25, tiny}});
  pools.push_back({"subnormals",
                   {tiny, 3 * tiny, -7 * tiny, 1000 * tiny, -0.0,
                    std::numeric_limits<double>::min(), 0.5 * tiny}});
  pools.push_back({"near-1e300",
                   {1e300, -1e300, 1.7e300, -3.1e299, 1.0, 3.0, -0.0, 1e-300}});
  return pools;
}

struct NaiveStore {
  std::vector<double> xs;  // insertion order

  double mean() const {
    if (xs.empty()) return 0.0;
    double acc = 0.0;
    for (double x : xs) acc += x;
    return acc / static_cast<double>(xs.size());
  }
  std::vector<double> sorted() const {
    std::vector<double> s = xs;
    std::sort(s.begin(), s.end());
    return s;
  }
  double quantile(double q) const {
    const std::vector<double> s = sorted();
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= s.size()) return s.back();
    return s[lo] * (1.0 - frac) + s[lo + 1] * frac;
  }
  double fraction_above(double x) const {
    if (xs.empty()) return 0.0;
    const auto above = std::count_if(xs.begin(), xs.end(),
                                     [x](double v) { return v > x; });
    return static_cast<double>(above) / static_cast<double>(xs.size());
  }
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// An order statistic's bits, except that the sign of a zero is unspecified:
// std::sort and std::nth_element leave equal values (0.0 == -0.0) in any
// order, so which zero lands at a position differs between any two orders.
::testing::AssertionResult same_order_statistic(double got, double want) {
  if (bits(got) == bits(want) || (got == 0.0 && want == 0.0)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << got << " vs " << want;
}

TEST(SampleStoreDiff, MatchesTheNaiveReferenceOnSeededOpSequences) {
  const std::vector<StoreShape> pools = differential_pools();
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    for (const StoreShape& pool : pools) {
      util::Rng rng(seed * 1000 + pool.samples.size());
      const auto draw = [&] {
        return pool.samples[rng.next_below(pool.samples.size())];
      };
      const auto draw_q = [&] {
        switch (rng.next_below(4)) {
          case 0: return 0.0;
          case 1: return 1.0;
          default: return rng.next_double();
        }
      };
      SampleStore store;
      NaiveStore ref;
      for (int op = 0; op < 80; ++op) {
        const std::string where = pool.name + " seed " +
                                  std::to_string(seed) + " op " +
                                  std::to_string(op);
        switch (rng.next_below(8)) {
          case 0:
          case 1: {
            const int k = 1 + static_cast<int>(rng.next_below(8));
            for (int i = 0; i < k; ++i) {
              const double x = draw();
              store.add(x);
              ref.xs.push_back(x);
            }
            break;
          }
          case 2:
            ASSERT_EQ(bits(store.mean()), bits(ref.mean())) << where;
            break;
          case 3:
            if (ref.xs.empty()) {
              EXPECT_THROW(store.quantile(0.5), InvariantError) << where;
            } else {
              const double q = draw_q();
              ASSERT_TRUE(same_order_statistic(store.quantile(q),
                                               ref.quantile(q)))
                  << where << " q=" << q;
            }
            break;
          case 4: {
            if (ref.xs.empty()) break;
            std::vector<double> qs(1 + rng.next_below(5));
            for (double& q : qs) q = draw_q();
            std::sort(qs.begin(), qs.end());
            std::vector<double> got(qs.size());
            store.quantiles(qs, got);
            for (std::size_t i = 0; i < qs.size(); ++i) {
              ASSERT_TRUE(same_order_statistic(got[i], ref.quantile(qs[i])))
                  << where << " q=" << qs[i];
            }
            break;
          }
          case 5: {
            const std::vector<double> want = ref.sorted();
            const std::vector<double>& got = store.sorted();
            ASSERT_EQ(got.size(), want.size()) << where;
            for (std::size_t i = 0; i < want.size(); ++i) {
              ASSERT_TRUE(same_order_statistic(got[i], want[i]))
                  << where << " i=" << i;
            }
            break;
          }
          case 6: {
            const double x = draw();
            ASSERT_EQ(bits(store.fraction_above(x)),
                      bits(ref.fraction_above(x)))
                << where << " x=" << x;
            break;
          }
          default: {
            // A shard that was never queried, possibly empty.
            SampleStore shard;
            const auto k = rng.next_below(6);
            for (std::uint64_t i = 0; i < k; ++i) {
              const double x = draw();
              shard.add(x);
              ref.xs.push_back(x);
            }
            store += shard;
            break;
          }
        }
        ASSERT_EQ(store.count(), ref.xs.size()) << where;
      }
      EXPECT_EQ(bits(store.mean()), bits(ref.mean()))
          << pool.name << " seed " << seed;
    }
  }
}

TEST(SampleStore, QuantilesRejectDescendingOrOutOfRangeQs) {
  const SampleStore s = store_of({3.0, 1.0, 2.0, 4.0});
  double out[2] = {};
  const double descending[] = {0.9, 0.5};
  EXPECT_THROW(s.quantiles(descending, out), InvariantError);
  const double out_of_range[] = {0.5, 1.5};
  EXPECT_THROW(s.quantiles(out_of_range, out), InvariantError);
  const double one[] = {0.5};
  EXPECT_THROW(s.quantiles(one, out), InvariantError);  // sizes differ
  const double repeated[] = {0.5, 0.5};
  s.quantiles(repeated, out);
  EXPECT_EQ(out[0], 2.5);
  EXPECT_EQ(out[1], 2.5);
}

// A store above util::kReleaseMinBytes hands its pages back when destroyed;
// moves and copies must leave exactly one owner per buffer, so no live
// store reads a released page.
TEST(SampleStore, LargeStoreSurvivesCopiesAndMoves) {
  constexpr std::size_t kN = 2 * util::kReleaseMinBytes / sizeof(double);
  SampleStore a;
  a.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) a.add(static_cast<double>(kN - i));
  const double mean = a.mean();
  SampleStore copy = a;
  SampleStore moved = std::move(a);
  { const SampleStore gone = copy; }
  SampleStore assigned;
  assigned = std::move(copy);
  for (const SampleStore* s : {&moved, &assigned}) {
    EXPECT_EQ(s->count(), kN);
    EXPECT_EQ(bits(s->mean()), bits(mean));
    EXPECT_EQ(s->quantile(1.0), static_cast<double>(kN));
    EXPECT_EQ(s->sorted().front(), 1.0);
  }
}

TEST(ReleasePages, ZeroesOnlyTheWholePagesInsideTheSpan) {
  std::vector<unsigned char> buf(3 * util::kReleaseMinBytes, 0xab);
  // The span starts 1 byte past and ends 1 byte short of a 64 KiB boundary,
  // so both ends sit in partial pages for any page size up to 64 KiB.
  constexpr std::size_t kAlign = std::size_t{1} << 16;
  const auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
  const std::size_t from = kAlign - addr % kAlign + 1;
  const std::size_t len = 2 * util::kReleaseMinBytes + kAlign - 2;
  util::release_pages(buf.data() + from, len);
  // The partial pages at either end are not released.
  EXPECT_EQ(buf[from], 0xab);
  EXPECT_EQ(buf[from + len - 1], 0xab);
  EXPECT_EQ(buf.front(), 0xab);
  EXPECT_EQ(buf.back(), 0xab);
#if defined(__linux__)
  EXPECT_EQ(buf[from + util::kReleaseMinBytes], 0);
#endif
}

TEST(ReleasePages, LeavesSpansBelowTheMinimumAlone) {
  std::vector<unsigned char> buf(util::kReleaseMinBytes, 0xcd);
  util::release_pages(buf.data(), buf.size() - 1);
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                          [](unsigned char c) { return c == 0xcd; }));
}

TEST(Histogram, CountsLandInTheRightBins) {
  Histogram h(0.001, 100.0, 10);
  h.add(0.005);
  h.add(50.0);
  EXPECT_EQ(h.total_count(), 2u);
  // Find the two non-empty bins and verify their ranges.
  int nonempty = 0;
  for (std::size_t b = 0; b < h.num_bins(); ++b) {
    if (h.bin_count(b) == 0) continue;
    ++nonempty;
    const double lo = h.bin_lower(b);
    const double hi = h.bin_upper(b);
    EXPECT_TRUE((lo <= 0.005 && 0.005 < hi) || (lo <= 50.0 && 50.0 < hi));
  }
  EXPECT_EQ(nonempty, 2);
}

TEST(Histogram, ClampsOutOfRangeInsteadOfDropping) {
  Histogram h(0.01, 1.0, 5);
  h.add(1e-9);
  h.add(1e9);
  h.add(0.0);
  h.add(-5.0);
  EXPECT_EQ(h.total_count(), 4u);
  EXPECT_GE(h.bin_count(0), 3u);
  EXPECT_EQ(h.bin_count(h.num_bins() - 1), 1u);
}

TEST(Histogram, QuantileEstimateIsInTheRightDecade) {
  Histogram h(1e-4, 1e2, 10);
  util::Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.add(rng.uniform(0.9, 1.1));
  const double q = h.quantile_estimate(0.5);
  EXPECT_GT(q, 0.5);
  EXPECT_LT(q, 2.0);
}

TEST(Histogram, GeometricMidpointBetweenEdges) {
  Histogram h(1.0, 100.0, 1);
  EXPECT_NEAR(h.bin_mid(0), std::sqrt(h.bin_lower(0) * h.bin_upper(0)), 1e-12);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0), InvariantError);
  EXPECT_THROW(Histogram(2.0, 1.0), InvariantError);
  EXPECT_THROW(Histogram(1.0, 10.0, 0), InvariantError);
}

TEST(Histogram, EmptyQuantileThrows) {
  Histogram h(0.01, 1.0);
  EXPECT_THROW(h.quantile_estimate(0.5), InvariantError);
}

// --- shard merging (operator+=) ---------------------------------------------
//
// The metric registry folds per-cell shards with `total += shard` in a fixed
// order; these pins keep that fold equivalent to having streamed every
// sample into one accumulator.

TEST(ShardMerge, SummaryStatsFoldMatchesSingleStream) {
  const std::vector<double> xs = {3.0, 1.0, 4.0, 1.5, 9.0, 2.5, 6.0};
  SummaryStats whole;
  for (double x : xs) whole.add(x);

  SummaryStats left, right, folded;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 3 ? left : right).add(xs[i]);
  }
  folded += left;
  folded += right;
  EXPECT_EQ(folded.count(), whole.count());
  EXPECT_DOUBLE_EQ(folded.mean(), whole.mean());
  EXPECT_DOUBLE_EQ(folded.min(), whole.min());
  EXPECT_DOUBLE_EQ(folded.max(), whole.max());
  EXPECT_NEAR(folded.variance(), whole.variance(), 1e-12);

  // Folding an empty shard (a cell that saw no samples) is a no-op.
  folded += SummaryStats{};
  EXPECT_EQ(folded.count(), whole.count());
  EXPECT_DOUBLE_EQ(folded.mean(), whole.mean());
}

TEST(ShardMerge, SampleStoreAppendsInInsertionOrder) {
  SampleStore a, b;
  a.add(3.0);
  a.add(1.0);
  b.add(2.0);
  b.add(0.5);
  a += b;
  ASSERT_EQ(a.count(), 4u);
  // Insertion order is preserved (mean sums in that order, so a fixed merge
  // order gives a bit-reproducible mean)...
  EXPECT_DOUBLE_EQ(a.mean(), (3.0 + 1.0 + 2.0 + 0.5) / 4.0);
  // ...and the sort cache is rebuilt, not stale.
  const auto& sorted = a.sorted();
  EXPECT_EQ(sorted, (std::vector<double>{0.5, 1.0, 2.0, 3.0}));
}

TEST(ShardMerge, SampleStoreMergeAfterSortedQueryStaysCorrect) {
  SampleStore a, b;
  a.add(2.0);
  EXPECT_DOUBLE_EQ(a.median(), 2.0);  // fills the cache before the merge
  b.add(1.0);
  a += b;
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.median(), 1.5);
}

TEST(ShardMerge, SampleStoreRejectsAQueriedRightHandStore) {
  // A query reorders the buffer, so the insertion order mean() sums in is
  // gone; a queried left-hand store merges as before.
  SampleStore a = store_of({1.0, 2.0});
  SampleStore selected = store_of({3.0, 1.0});
  EXPECT_EQ(selected.median(), 2.0);
  EXPECT_THROW(a += selected, InvariantError);
  SampleStore sorted = store_of({3.0, 1.0});
  sorted.sorted();
  EXPECT_THROW(a += sorted, InvariantError);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.median(), 1.5);
  a += store_of({0.5, 4.0});
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.mean(), (1.0 + 2.0 + 0.5 + 4.0) / 4.0);
  EXPECT_EQ(a.median(), 1.5);
}

TEST(ShardMerge, HistogramFoldIsBinWise) {
  Histogram a(1e-3, 10.0, 10);
  Histogram b(1e-3, 10.0, 10);
  a.add(0.01);
  a.add(0.5);
  b.add(0.01, 3);
  a += b;
  EXPECT_EQ(a.total_count(), 5u);
  Histogram whole(1e-3, 10.0, 10);
  whole.add(0.01, 4);
  whole.add(0.5);
  for (std::size_t i = 0; i < a.num_bins(); ++i) {
    EXPECT_EQ(a.bin_count(i), whole.bin_count(i)) << "bin " << i;
  }
}

TEST(ShardMerge, HistogramRejectsMismatchedBinning) {
  Histogram a(1e-3, 10.0, 10);
  Histogram coarser(1e-3, 10.0, 5);
  Histogram shifted(1e-2, 10.0, 10);
  EXPECT_THROW(a += coarser, InvariantError);
  EXPECT_THROW(a += shifted, InvariantError);
}

}  // namespace
}  // namespace eas::stats
