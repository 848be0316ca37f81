// Config::Validate() across the three experiments of the unified
// Experiment API: valid defaults produce no diagnostics, and every
// garbage-run hazard produces an actionable message. The Run* entrypoints
// fail fast (CheckConfigOrDie) instead of running silently.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/experiment_api.h"
#include "src/sim/metrics.h"

namespace centsim {
namespace {

bool AnyMentions(const std::vector<std::string>& diagnostics, const std::string& needle) {
  for (const std::string& diagnostic : diagnostics) {
    if (diagnostic.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(ValidateTest, DefaultConfigsAreValid) {
  EXPECT_TRUE(FiftyYearConfig{}.Validate().empty());
  EXPECT_TRUE(DistrictConfig{}.Validate().empty());
  EXPECT_TRUE(CenturyConfig{}.Validate().empty());
}

TEST(ValidateTest, FiftyYearZeroDevices) {
  FiftyYearConfig cfg;
  cfg.devices_802154 = 0;
  cfg.devices_lora = 0;
  const auto diagnostics = cfg.Validate();
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_TRUE(AnyMentions(diagnostics, "no devices"));
}

TEST(ValidateTest, FiftyYearNonPositiveHorizon) {
  FiftyYearConfig cfg;
  cfg.horizon = SimTime();
  EXPECT_TRUE(AnyMentions(cfg.Validate(), "horizon"));
}

TEST(ValidateTest, FiftyYearReportIntervalBeyondHorizon) {
  FiftyYearConfig cfg;
  cfg.horizon = SimTime::Days(1);
  cfg.report_interval = SimTime::Days(2);
  EXPECT_TRUE(AnyMentions(cfg.Validate(), "exceeds horizon"));
}

TEST(ValidateTest, FiftyYearBadProbabilityAndWallet) {
  FiftyYearConfig cfg;
  cfg.hotspot_replacement_prob = 1.5;
  cfg.wallet_usd_per_device = -1.0;
  const auto diagnostics = cfg.Validate();
  EXPECT_TRUE(AnyMentions(diagnostics, "hotspot_replacement_prob"));
  EXPECT_TRUE(AnyMentions(diagnostics, "wallet_usd_per_device"));
}

TEST(ValidateTest, FiftyYearCollectsAllDiagnosticsAtOnce) {
  FiftyYearConfig cfg;
  cfg.devices_802154 = 0;
  cfg.devices_lora = 0;
  cfg.horizon = SimTime();
  cfg.area_side_m = 0.0;
  EXPECT_GE(cfg.Validate().size(), 3u);
}

TEST(ValidateTest, DistrictDiagnostics) {
  DistrictConfig cfg;
  cfg.device_count = 0;
  cfg.zone_grid = 0;
  cfg.gateway_range_m = 0.0;
  const auto diagnostics = cfg.Validate();
  EXPECT_TRUE(AnyMentions(diagnostics, "device_count"));
  EXPECT_TRUE(AnyMentions(diagnostics, "zone_grid"));
  EXPECT_TRUE(AnyMentions(diagnostics, "gateway_range_m"));
}

TEST(ValidateTest, CenturyDiagnostics) {
  CenturyConfig cfg;
  cfg.fleet_size = 0;
  cfg.batch.cycle_period = SimTime();
  cfg.life_improvement_per_decade = 0.0;
  const auto diagnostics = cfg.Validate();
  EXPECT_TRUE(AnyMentions(diagnostics, "fleet_size"));
  EXPECT_TRUE(AnyMentions(diagnostics, "cycle_period"));
  EXPECT_TRUE(AnyMentions(diagnostics, "life_improvement_per_decade"));
}

// Combinations an engine cannot run are refused up front, not when the run
// starts.
TEST(ValidateTest, ShardedDistrictRefusesMetricsRegistry) {
  MetricsRegistry registry;
  DistrictConfig cfg;
  cfg.metrics = &registry;
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.shard.shards = 2;
  const auto diagnostics = cfg.Validate();
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_TRUE(AnyMentions(diagnostics, "metrics registry is not supported"));
}

TEST(ValidateTest, RunEntrypointsFailFastOnInvalidConfig) {
  FiftyYearConfig fifty;
  fifty.devices_802154 = 0;
  fifty.devices_lora = 0;
  EXPECT_DEATH(RunFiftyYearExperiment(fifty), "invalid config");

  DistrictConfig district;
  district.device_count = 0;
  EXPECT_DEATH(RunDistrictScenario(district), "invalid config");

  CenturyConfig century;
  century.fleet_size = 0;
  EXPECT_DEATH(RunCenturyScenario(century), "invalid config");
}

TEST(ValidateTest, ExperimentNamesStable) {
  // Names are recorded in ensemble manifests; a rename is a format change.
  EXPECT_STREQ(FiftyYearExperiment::Name(), "fifty_year");
  EXPECT_STREQ(DistrictExperiment::Name(), "district");
  EXPECT_STREQ(CenturyExperiment::Name(), "century");
}

}  // namespace
}  // namespace centsim
