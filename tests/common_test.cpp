// Unit tests for src/common: RNG determinism/statistics, Zipf sampling,
// error macros, table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/logging.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"

namespace embrace {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent(7);
  Rng c1 = parent.split(0);
  Rng c2 = parent.split(1);
  Rng c1b = parent.split(0);
  EXPECT_EQ(c1.next_u64(), c1b.next_u64());
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1.next_u64() == c2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (uint64_t n : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(n), n);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr uint64_t kBuckets = 8;
  constexpr int kSamples = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / static_cast<int>(kBuckets),
                kSamples / static_cast<int>(kBuckets) / 5);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalHasZeroMeanUnitVariance) {
  Rng rng(13);
  constexpr int kSamples = 50000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.next_normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.03);
  EXPECT_NEAR(sumsq / kSamples, 1.0, 0.05);
}

TEST(Rng, NextIntCoversRangeInclusive) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Zipf, DegenerateSingleElement) {
  ZipfSampler z(1, 1.0);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z.sample(rng), 0u);
}

TEST(Zipf, ZeroSkewIsUniform) {
  ZipfSampler z(16, 0.0);
  Rng rng(23);
  std::vector<int> counts(16, 0);
  constexpr int kSamples = 64000;
  for (int i = 0; i < kSamples; ++i) ++counts[z.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, kSamples / 16, kSamples / 16 / 4);
}

TEST(Zipf, SamplesInRange) {
  for (double s : {0.5, 1.0, 1.5}) {
    ZipfSampler z(1000, s);
    Rng rng(29);
    for (int i = 0; i < 5000; ++i) EXPECT_LT(z.sample(rng), 1000u);
  }
}

TEST(Zipf, FrequencyFollowsPowerLaw) {
  // For s=1, P(0)/P(9) should be ~10. Check the empirical ratio loosely.
  ZipfSampler z(10000, 1.0);
  Rng rng(31);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 200000; ++i) ++counts[z.sample(rng)];
  ASSERT_GT(counts[0], 0);
  ASSERT_GT(counts[9], 0);
  const double ratio =
      static_cast<double>(counts[0]) / static_cast<double>(counts[9]);
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 16.0);
}

TEST(Zipf, HigherSkewConcentratesMass) {
  Rng rng(37);
  auto top_fraction = [&](double s) {
    ZipfSampler z(100000, s);
    int top = 0;
    constexpr int kSamples = 30000;
    for (int i = 0; i < kSamples; ++i) top += (z.sample(rng) < 100);
    return static_cast<double>(top) / kSamples;
  };
  const double frac_low = top_fraction(0.8);
  const double frac_high = top_fraction(1.3);
  EXPECT_GT(frac_high, frac_low);
}

TEST(Error, CheckThrowsWithMessage) {
  try {
    EMBRACE_CHECK(1 == 2, << "custom " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom 42"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Error, ComparisonMacros) {
  EXPECT_NO_THROW(EMBRACE_CHECK_EQ(3, 3));
  EXPECT_THROW(EMBRACE_CHECK_EQ(3, 4), Error);
  EXPECT_THROW(EMBRACE_CHECK_LT(4, 4), Error);
  EXPECT_NO_THROW(EMBRACE_CHECK_LE(4, 4));
  EXPECT_THROW(EMBRACE_CHECK_GT(4, 4), Error);
  EXPECT_NO_THROW(EMBRACE_CHECK_GE(4, 4));
}


TEST(Logging, LevelFilteringAndRestore) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages are discarded without evaluating side effects?
  // (The macro evaluates the stream only when enabled.)
  int evaluated = 0;
  auto touch = [&] {
    ++evaluated;
    return "x";
  };
  LOG_DEBUG << touch();
  EXPECT_EQ(evaluated, 0);
  set_log_level(LogLevel::kDebug);
  LOG_DEBUG << touch();
  EXPECT_EQ(evaluated, 1);
  set_log_level(original);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(bytes_to_mb(mb_to_bytes(252.5)), 252.5);
  EXPECT_DOUBLE_EQ(gbps_to_bytes_per_sec(100.0), 100e9 / 8.0);
  EXPECT_DOUBLE_EQ(f32_bytes(10), 40.0);
}

TEST(Table, RendersAlignedRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.50"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.50"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|-"), std::string::npos);
}

TEST(Table, RejectsMismatchedRowWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

}  // namespace
}  // namespace embrace
