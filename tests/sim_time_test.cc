#include "src/sim/time.h"

#include <gtest/gtest.h>

namespace centsim {
namespace {

TEST(SimTimeTest, DefaultIsZero) {
  SimTime t;
  EXPECT_EQ(t.micros(), 0);
  EXPECT_DOUBLE_EQ(t.ToSeconds(), 0.0);
}

TEST(SimTimeTest, UnitConstructorsAgree) {
  EXPECT_EQ(SimTime::Millis(1).micros(), 1000);
  EXPECT_EQ(SimTime::Seconds(1).micros(), 1000000);
  EXPECT_EQ(SimTime::Minutes(1).micros(), 60 * 1000000LL);
  EXPECT_EQ(SimTime::Hours(1).micros(), 3600 * 1000000LL);
  EXPECT_EQ(SimTime::Days(1).micros(), 86400 * 1000000LL);
  EXPECT_EQ(SimTime::Weeks(1).micros(), 7 * 86400 * 1000000LL);
}

TEST(SimTimeTest, JulianYearConvention) {
  EXPECT_DOUBLE_EQ(SimTime::Years(1).ToDays(), 365.25);
  EXPECT_NEAR(SimTime::Years(100).ToYears(), 100.0, 1e-9);
}

TEST(SimTimeTest, CenturyFitsWithHeadroom) {
  const SimTime century = SimTime::Years(100);
  EXPECT_GT(century.micros(), 0);
  // 1000x a century still fits in the representation.
  EXPECT_GT((century * 1000.0).micros(), 0);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::Hours(2);
  const SimTime b = SimTime::Minutes(30);
  EXPECT_EQ((a + b).micros(), SimTime::Minutes(150).micros());
  EXPECT_EQ((a - b).micros(), SimTime::Minutes(90).micros());
  EXPECT_EQ((b * 4.0).micros(), a.micros());
}

TEST(SimTimeTest, CompoundAssignment) {
  SimTime t = SimTime::Seconds(10);
  t += SimTime::Seconds(5);
  EXPECT_DOUBLE_EQ(t.ToSeconds(), 15.0);
  t -= SimTime::Seconds(1);
  EXPECT_DOUBLE_EQ(t.ToSeconds(), 14.0);
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(SimTime::Seconds(1), SimTime::Seconds(2));
  EXPECT_LE(SimTime::Hours(24), SimTime::Days(1));
  EXPECT_GE(SimTime::Days(1), SimTime::Hours(24));
  EXPECT_EQ(SimTime::Days(7), SimTime::Weeks(1));
}

TEST(SimTimeTest, MaxIsSentinel) {
  EXPECT_GT(SimTime::Max(), SimTime::Years(100000));
  EXPECT_EQ(SimTime::Max().ToString(), "inf");
}

TEST(SimTimeTest, YearSpanEndsAtTheHorizon) {
  const SimTime year = SimTime::Years(1);
  EXPECT_EQ(YearSpan(SimTime::Years(3), 0), year);
  EXPECT_EQ(YearSpan(SimTime::Years(3), 2), year);
  EXPECT_EQ(YearSpan(SimTime::Years(37.5), 36), year);
  EXPECT_EQ(YearSpan(SimTime::Years(37.5), 37), SimTime::Years(37.5) - SimTime::Years(37));
  EXPECT_EQ(YearSpan(SimTime::Days(1), 0), SimTime::Days(1));
}

TEST(SimTimeTest, ToStringPicksUnits) {
  EXPECT_EQ(SimTime::Years(3).ToString(), "3.00y");
  EXPECT_EQ(SimTime::Days(2).ToString(), "2.00d");
  EXPECT_EQ(SimTime::Hours(5).ToString(), "5.00h");
  EXPECT_EQ(SimTime::Seconds(2.5).ToString(), "2.500s");
  EXPECT_EQ(SimTime::Millis(12).ToString(), "12.000ms");
  EXPECT_EQ(SimTime::Micros(7).ToString(), "7us");
}

TEST(SimTimeTest, ConversionRoundTrips) {
  for (double v : {0.001, 0.5, 1.0, 17.25, 1234.75}) {
    EXPECT_NEAR(SimTime::Hours(v).ToHours(), v, 1e-9);
    EXPECT_NEAR(SimTime::Days(v).ToDays(), v, 1e-9);
    EXPECT_NEAR(SimTime::Years(v).ToYears(), v, 1e-9);
  }
}

}  // namespace
}  // namespace centsim
