#include "src/sim/config.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace centsim {
namespace {

TEST(ConfigTest, ParsesSectionsAndKeys) {
  const auto cfg = Config::Parse(R"(
# experiment definition
seed = 42

[devices]
count_802154 = 8
count_lora = 8
report_interval_hours = 1.5

[maintenance]
enabled = true
)");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->GetInt("seed"), 42);
  EXPECT_EQ(cfg->GetInt("devices.count_802154"), 8);
  EXPECT_DOUBLE_EQ(cfg->GetDouble("devices.report_interval_hours").value(), 1.5);
  EXPECT_EQ(cfg->GetBool("maintenance.enabled"), true);
  EXPECT_EQ(cfg->LineOf("devices.count_lora"), 7);
  EXPECT_EQ(cfg->Keys(), (std::vector<std::string>{"devices.count_802154", "devices.count_lora",
                                                   "devices.report_interval_hours",
                                                   "maintenance.enabled", "seed"}));
}

TEST(ConfigTest, CommentsAndBlankLinesIgnored) {
  const auto cfg = Config::Parse("# comment\n; also comment\n\nkey = value\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->size(), 1u);
  EXPECT_EQ(cfg->GetString("key"), "value");
}

TEST(ConfigTest, WhitespaceTrimmed) {
  const auto cfg = Config::Parse("  spaced_key   =   spaced value  \n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->GetString("spaced_key"), "spaced value");
}

TEST(ConfigTest, FallbacksWhenMissing) {
  const auto cfg = Config::Parse("a = 1\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cfg->GetDouble("missing", 2.5).value(), 2.5);
  EXPECT_EQ(cfg->GetBool("missing", true), true);
  EXPECT_EQ(cfg->LineOf("missing"), 0);
  EXPECT_EQ(cfg->GetString("missing", "x"), "x");
  EXPECT_FALSE(cfg->Has("missing"));
}

TEST(ConfigTest, MalformedLinesRejected) {
  std::string error;
  EXPECT_FALSE(Config::Parse("just some words\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(Config::Parse("[unclosed\n", &error).has_value());
  EXPECT_FALSE(Config::Parse("= valueless\n", &error).has_value());
}

TEST(ConfigTest, BoolSpellings) {
  const auto cfg = Config::Parse(
      "a = true\nb = Yes\nc = ON\nd = 1\ne = false\nf = No\ng = off\nh = 0\ni = maybe\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->GetBool("a"), true);
  EXPECT_EQ(cfg->GetBool("b"), true);
  EXPECT_EQ(cfg->GetBool("c"), true);
  EXPECT_EQ(cfg->GetBool("d"), true);
  EXPECT_EQ(cfg->GetBool("e", true), false);
  EXPECT_EQ(cfg->GetBool("f", true), false);
  EXPECT_EQ(cfg->GetBool("g", true), false);
  EXPECT_EQ(cfg->GetBool("h", true), false);
  std::string error;
  EXPECT_EQ(cfg->GetBool("i", true, &error), std::nullopt);  // Unparseable -> error.
  EXPECT_NE(error.find("line 9: i = 'maybe' is not a boolean"), std::string::npos) << error;
}

TEST(ConfigTest, NonNumericFallsBack) {
  const auto cfg = Config::Parse("# header\nn = twelve\nx = 1.5e\nbig = 99999999999999999999\n");
  ASSERT_TRUE(cfg.has_value());
  std::string error;
  EXPECT_EQ(cfg->GetInt("n", -1, &error), std::nullopt);
  EXPECT_EQ(error, "line 2: n = 'twelve' is not an integer");
  EXPECT_EQ(cfg->GetDouble("n", -1.0, &error), std::nullopt);
  EXPECT_EQ(error, "line 2: n = 'twelve' is not a finite number");
  EXPECT_EQ(cfg->GetDouble("x", 0.0, &error), std::nullopt);
  EXPECT_EQ(error, "line 3: x = '1.5e' is not a finite number");
  EXPECT_EQ(cfg->GetInt("big", 0, &error), std::nullopt);
  EXPECT_EQ(error, "line 4: big = '99999999999999999999' is not an integer");
}

TEST(ConfigTest, LaterKeysOverride) {
  const auto cfg = Config::Parse("k = 1\nk = 2\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->GetInt("k"), 2);
  EXPECT_EQ(cfg->LineOf("k"), 2);
}

TEST(ConfigTest, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(Config::Load("/nonexistent/path.ini", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ConfigTest, SetProgrammatically) {
  Config cfg = *Config::Parse("");
  cfg.Set("x.y", "3.5");
  EXPECT_DOUBLE_EQ(cfg.GetDouble("x.y").value(), 3.5);
}

}  // namespace
}  // namespace centsim
