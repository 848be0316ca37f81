#include <gtest/gtest.h>

#include "src/telemetry/report.h"

namespace centsim {
namespace {

TEST(TableTest, RendersAlignedRows) {
  Table t({"metric", "value"});
  t.AddRow({"uptime", "99.2%"});
  t.AddRow({"longest gap", "3 weeks"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("metric"), std::string::npos);
  EXPECT_NE(s.find("99.2%"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"only-one"});
  EXPECT_NO_THROW(t.ToString());
}

TEST(FormatTest, Doubles) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(FormatTest, CountsHaveSeparators) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(438000), "438,000");
  EXPECT_EQ(FormatCount(591315), "591,315");
}

TEST(FormatTest, UsdScales) {
  EXPECT_EQ(FormatUsd(3.5), "$3.50");
  EXPECT_EQ(FormatUsd(12500.0), "$12.5k");
  EXPECT_EQ(FormatUsd(3200000.0), "$3.20M");
}

TEST(FormatTest, Percent) {
  EXPECT_EQ(FormatPercent(0.662), "66.2%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

}  // namespace
}  // namespace centsim
