#include "src/core/scenario.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "src/core/montecarlo.h"

namespace centsim {
namespace {

TEST(ScenarioTest, DefaultsWhenEmpty) {
  const auto cfg = FiftyYearConfigFrom(*Config::Parse(""));
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->devices_802154, FiftyYearConfig{}.devices_802154);
  EXPECT_EQ(cfg->horizon, SimTime::Years(50));
  const auto century = CenturyConfigFrom(*Config::Parse(""));
  ASSERT_TRUE(century.has_value());
  EXPECT_EQ(century->device_class, DeviceClassKind::kEnergyHarvesting);
}

TEST(ScenarioTest, FiftyYearKeysApplied) {
  const auto parsed = Config::Parse(R"(
[experiment]
seed = 777
horizon_years = 10
area_side_m = 1800

[devices]
count_802154 = 5
count_lora = 7
report_interval_hours = 2
replace_failed = false
replacement_delay_days = 10

[gateways]
owned = 3
helium_hotspots = 6
hotspot_replacement_prob = 0.4

[maintenance]
enabled = false
annual_budget_hours = 55

[wallet]
usd_per_device = 12.5
)");
  ASSERT_TRUE(parsed.has_value());
  std::string error;
  const auto loaded = FiftyYearConfigFrom(*parsed, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const FiftyYearConfig& cfg = *loaded;
  EXPECT_EQ(cfg.seed, 777u);
  EXPECT_EQ(cfg.horizon, SimTime::Years(10));
  EXPECT_DOUBLE_EQ(cfg.area_side_m, 1800.0);
  EXPECT_EQ(cfg.devices_802154, 5u);
  EXPECT_EQ(cfg.devices_lora, 7u);
  EXPECT_EQ(cfg.report_interval, SimTime::Hours(2));
  EXPECT_FALSE(cfg.replace_failed_devices);
  EXPECT_EQ(cfg.device_replacement_delay, SimTime::Days(10));
  EXPECT_EQ(cfg.owned_gateways, 3u);
  EXPECT_EQ(cfg.helium_hotspots, 6u);
  EXPECT_DOUBLE_EQ(cfg.hotspot_replacement_prob, 0.4);
  EXPECT_FALSE(cfg.maintenance.enabled);
  EXPECT_DOUBLE_EQ(cfg.maintenance.annual_budget_hours, 55.0);
  EXPECT_DOUBLE_EQ(cfg.wallet_usd_per_device, 12.5);
}

TEST(ScenarioTest, CenturyKeysApplied) {
  const auto parsed = Config::Parse(R"(
[century]
seed = 9
fleet_size = 1234
horizon_years = 60
zone_count = 9
cycle_period_years = 5
device_class = battery
proactive_refresh_age_years = 12
life_improvement_per_decade = 1.2
)");
  ASSERT_TRUE(parsed.has_value());
  std::string error;
  const auto loaded = CenturyConfigFrom(*parsed, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const CenturyConfig& cfg = *loaded;
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_EQ(cfg.fleet_size, 1234u);
  EXPECT_EQ(cfg.horizon, SimTime::Years(60));
  EXPECT_EQ(cfg.batch.zone_count, 9u);
  EXPECT_EQ(cfg.batch.cycle_period, SimTime::Years(5));
  EXPECT_EQ(cfg.device_class, DeviceClassKind::kBatteryPowered);
  EXPECT_EQ(cfg.proactive_refresh_age, SimTime::Years(12));
  EXPECT_DOUBLE_EQ(cfg.life_improvement_per_decade, 1.2);
}

TEST(ScenarioTest, ScenarioRunsEndToEnd) {
  const auto parsed = Config::Parse(R"(
[experiment]
seed = 5
horizon_years = 3
[devices]
count_802154 = 2
count_lora = 2
report_interval_hours = 12
)");
  ASSERT_TRUE(parsed.has_value());
  const auto report = RunFiftyYearExperiment(FiftyYearConfigFrom(*parsed).value());
  EXPECT_GT(report.total_packets, 500u);
}

// Loads `text` through `load`; returns the error (empty when it loaded).
template <typename Load>
std::string LoadError(const std::string& text, Load load) {
  const auto parsed = Config::Parse(text);
  EXPECT_TRUE(parsed.has_value());
  std::string error;
  const bool loaded = load(*parsed, &error).has_value();
  EXPECT_EQ(loaded, error.empty()) << error;
  return error;
}

TEST(ScenarioTest, UnknownKeyIsAnErrorNamingTheLine) {
  EXPECT_EQ(LoadError("[experiment]\nseed = 3\n[devices]\ncount_lora = 4\ncuont_802154 = 2\n",
                      FiftyYearConfigFrom),
            "line 5: unknown key devices.cuont_802154");
  EXPECT_EQ(LoadError("[century]\nfleet_size = 10\nzones = 4\n", CenturyConfigFrom),
            "line 3: unknown key century.zones");
  // Sections a loader does not read are left to other loaders.
  EXPECT_EQ(LoadError("[century]\nzones = 4\n", FiftyYearConfigFrom), "");
  EXPECT_EQ(LoadError("[wallet]\nusd = 4\n", CenturyConfigFrom), "");
}

TEST(ScenarioTest, BadValueIsAnErrorNamingTheLine) {
  EXPECT_EQ(LoadError("[devices]\ncount_lora = four\n", FiftyYearConfigFrom),
            "line 2: devices.count_lora = 'four' is not an integer");
  EXPECT_EQ(LoadError("[devices]\ncount_lora = -4\n", FiftyYearConfigFrom),
            "line 2: devices.count_lora = -4 is outside [0, 4294967295]");
  EXPECT_EQ(LoadError("[maintenance]\nenabled = maybe\n", FiftyYearConfigFrom),
            "line 2: maintenance.enabled = 'maybe' is not a boolean (true/false, yes/no, "
            "on/off, 1/0)");
  EXPECT_EQ(LoadError("[century]\nhorizon_years = 1e\n", CenturyConfigFrom),
            "line 2: century.horizon_years = '1e' is not a finite number");
  EXPECT_EQ(LoadError("[century]\ndevice_class = solar\n", CenturyConfigFrom),
            "line 2: century.device_class = 'solar' is not harvesting or battery");
  // Several errors: the first bad value is reported, before unknown keys.
  EXPECT_EQ(LoadError("[century]\nbogus = 1\nseed = x\nzone_count = y\n", CenturyConfigFrom),
            "line 3: century.seed = 'x' is not an integer");
  EXPECT_EQ(LoadError("[century]\nbogus = 1\nzones = 2\n", CenturyConfigFrom),
            "line 2: unknown key century.bogus");
}

// The shipped example scenario loads; a copy with one misspelt key does not.
TEST(ScenarioTest, ExampleScenarioLoadsAndMisspeltCopyFails) {
  std::ifstream in(CENTSIM_SOURCE_DIR "/examples/scenario.ini");
  ASSERT_TRUE(in.good());
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  EXPECT_EQ(LoadError(text, FiftyYearConfigFrom), "");
  EXPECT_EQ(FiftyYearConfigFrom(*Config::Parse(text))->devices_lora, 4u);

  std::string misspelt = text;
  const size_t at = misspelt.find("count_lora");
  ASSERT_NE(at, std::string::npos);
  misspelt.replace(at, 10, "count_lroa");
  EXPECT_EQ(LoadError(misspelt, FiftyYearConfigFrom), "line 12: unknown key devices.count_lroa");
}

TEST(MonteCarloTest, EnsembleAggregates) {
  FiftyYearConfig base;
  base.seed = 100;
  base.devices_802154 = 2;
  base.devices_lora = 2;
  base.helium_hotspots = 2;
  base.report_interval = SimTime::Hours(12);
  base.horizon = SimTime::Years(3);
  EnsembleOptions options;
  options.replicas = 5;
  const auto ensemble = AggregateFiftyYear(
      EnsembleRunner<FiftyYearExperiment>::Run(base, options).replicas, /*weekly_goal=*/0.5);
  EXPECT_EQ(ensemble.runs, 5u);
  EXPECT_EQ(ensemble.weekly_uptime.count(), 5u);
  EXPECT_GE(ensemble.GoalProbability(), 0.0);
  EXPECT_LE(ensemble.GoalProbability(), 1.0);
  // Different seeds should produce at least two distinct uptime values or
  // failure counts (not a degenerate sweep).
  EXPECT_GT(ensemble.device_failures.count(), 0u);
}

TEST(MonteCarloTest, GoalProbabilityMonotoneInGoal) {
  FiftyYearConfig base;
  base.seed = 200;
  base.devices_802154 = 2;
  base.devices_lora = 2;
  base.helium_hotspots = 2;
  base.report_interval = SimTime::Hours(12);
  base.horizon = SimTime::Years(3);
  EnsembleOptions options;
  options.replicas = 4;
  const auto replicas = EnsembleRunner<FiftyYearExperiment>::Run(base, options).replicas;
  const auto lenient = AggregateFiftyYear(replicas, 0.3);
  const auto strict = AggregateFiftyYear(replicas, 0.999);
  EXPECT_GE(lenient.runs_meeting_weekly_goal, strict.runs_meeting_weekly_goal);
}

}  // namespace
}  // namespace centsim
