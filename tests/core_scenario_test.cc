#include "src/core/scenario.h"

#include <gtest/gtest.h>

#include "src/core/montecarlo.h"

namespace centsim {
namespace {

TEST(ScenarioTest, DefaultsWhenEmpty) {
  const auto cfg = FiftyYearConfigFrom(*Config::Parse(""));
  EXPECT_EQ(cfg.devices_802154, FiftyYearConfig{}.devices_802154);
  EXPECT_EQ(cfg.horizon, SimTime::Years(50));
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
  const auto cfg = FiftyYearConfigFrom(*parsed);
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
  const auto cfg = CenturyConfigFrom(*parsed);
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
  const auto report = RunFiftyYearExperiment(FiftyYearConfigFrom(*parsed));
  EXPECT_GT(report.total_packets, 500u);
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
