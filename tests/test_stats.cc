#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace cnpu {
namespace {

TEST(Mean, Basics) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(mean({5}), 5.0);
}

// Regression (stats masking bugfix): an empty mean used to read as a real
// 0.0 measurement downstream. It now poisons the result with NaN, matching
// percentile/min_of.
TEST(Mean, EmptyIsNan) { EXPECT_TRUE(std::isnan(mean({}))); }

TEST(MinMax, Basics) {
  EXPECT_DOUBLE_EQ(min_of({3, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(max_of({3, 1, 2}), 3.0);
}

TEST(MinMax, EmptyIsNan) {
  EXPECT_TRUE(std::isnan(min_of({})));
  EXPECT_TRUE(std::isnan(max_of({})));
}

TEST(Percentile, Endpoints) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
}

TEST(Percentile, Median) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 50), 2.5);
}

TEST(Percentile, ClampsRange) {
  EXPECT_DOUBLE_EQ(percentile({1, 2}, -5), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2}, 200), 2.0);
}

TEST(Percentile, EmptyIsNan) { EXPECT_TRUE(std::isnan(percentile({}, 50))); }

// Regression (strict-weak-ordering bugfix): percentile used to std::sort
// NaN-bearing input (dropped-frame latencies), which is undefined behavior
// — NaN comparisons are not a strict weak order. Any NaN now yields NaN.
TEST(Percentile, AnyNanPoisonsTheRank) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(percentile({1.0, nan, 3.0}, 50)));
  EXPECT_TRUE(std::isnan(percentile({nan}, 0)));
  EXPECT_TRUE(std::isnan(percentile({nan, nan}, 100)));
}

// The allocation-free rank path the simulation engine uses on its own
// pre-sorted scratch: on already-sorted NaN-free input it must agree with
// `percentile` BITWISE (same rank arithmetic, same interpolation order),
// or engine results would drift from the one-shot simulator's.
TEST(PercentileSorted, BitwiseEqualToPercentileOnSortedInput) {
  const std::vector<std::vector<double>> cases = {
      {4.0},
      {1.0, 2.0},
      {1.0, 2.0, 3.0, 4.0, 5.0},
      {0.125, 0.25, 0.5, 1.0 / 3.0, 2.0 / 3.0, 0.75, 7.0, 11.0},
  };
  for (std::vector<double> xs : cases) {
    std::sort(xs.begin(), xs.end());
    for (const double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
      EXPECT_DOUBLE_EQ(percentile_sorted(xs, p), percentile(xs, p))
          << "n=" << xs.size() << " p=" << p;
      // Bitwise, not just close: compare exact representations too.
      EXPECT_EQ(percentile_sorted(xs, p), percentile(xs, p));
    }
  }
}

TEST(PercentileSorted, ClampsRangeAndEmptyIsNan) {
  EXPECT_DOUBLE_EQ(percentile_sorted({1, 2}, -5), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted({1, 2}, 200), 2.0);
  EXPECT_TRUE(std::isnan(percentile_sorted({}, 50)));
}

}  // namespace
}  // namespace cnpu
