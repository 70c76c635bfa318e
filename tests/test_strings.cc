#include "util/strings.h"

#include <gtest/gtest.h>

namespace cnpu {
namespace {

TEST(FormatFixed, RoundsToDigits) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(1.23556, 2), "1.24");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(FormatFixed, ZeroDigits) { EXPECT_EQ(format_fixed(2.7, 0), "3"); }

TEST(FormatG, SignificantDigitsLikePrintf) {
  EXPECT_EQ(format_g(0.000123456789, 6), "0.000123457");
  EXPECT_EQ(format_g(1.5e9, 4), "1.5e+09");
  EXPECT_EQ(format_g(1.0 / 3.0, 12), "0.333333333333");
  EXPECT_EQ(format_g(-2.5e17, 12), "-2.5e+17");
  EXPECT_EQ(format_g(42.0, 3), "42");
}

TEST(FormatSi, PicksSuffix) {
  EXPECT_EQ(format_si(1.5e3), "1.50 k");
  EXPECT_EQ(format_si(2.5e6), "2.50 M");
  EXPECT_EQ(format_si(9.216e3, 3), "9.216 k");
  EXPECT_EQ(format_si(3.1e9), "3.10 G");
  EXPECT_EQ(format_si(4.2e12), "4.20 T");
}

TEST(FormatSi, SmallValuesUnsuffixed) { EXPECT_EQ(format_si(12.0), "12.00"); }

TEST(FormatSi, NegativeValues) { EXPECT_EQ(format_si(-2.5e6), "-2.50 M"); }

TEST(FormatSeconds, PicksUnit) {
  EXPECT_EQ(format_seconds(1.8), "1.80 s");
  EXPECT_EQ(format_seconds(0.0827), "82.70 ms");
  EXPECT_EQ(format_seconds(35e-9), "35.00 ns");
  EXPECT_EQ(format_seconds(4.2e-6), "4.20 us");
}

TEST(FormatJoules, PicksUnit) {
  EXPECT_EQ(format_joules(3.36), "3.36 J");
  EXPECT_EQ(format_joules(0.04), "40.00 mJ");
  EXPECT_EQ(format_joules(2.04e-12), "2.04 pJ");
  EXPECT_EQ(format_joules(5e-7), "500.00 nJ");
}

TEST(FormatPercentDelta, SignedOutput) {
  EXPECT_EQ(format_percent_delta(-0.174), "-17.4%");
  EXPECT_EQ(format_percent_delta(0.001), "+0.1%");
  EXPECT_EQ(format_percent_delta(0.0), "+0.0%");
}

TEST(Join, EmptyAndSingle) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
}

TEST(Join, Multiple) { EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c"); }

TEST(Pad, LeftRight) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
}

TEST(Pad, NoTruncation) {
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
  EXPECT_EQ(pad_right("abcdef", 3), "abcdef");
}

}  // namespace
}  // namespace cnpu
