#include "src/core/theseus.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/sim/profiler.h"

namespace centsim {
namespace {

CenturyConfig QuickConfig() {
  CenturyConfig cfg;
  cfg.seed = 5;
  cfg.fleet_size = 400;
  cfg.horizon = SimTime::Years(100);
  cfg.batch.zone_count = 8;
  cfg.batch.cycle_period = SimTime::Years(6);
  return cfg;
}

TEST(CenturyTest, AvailabilityBounded) {
  const auto report = RunCenturyScenario(QuickConfig());
  EXPECT_GT(report.mean_availability, 0.0);
  EXPECT_LE(report.mean_availability, 1.0);
  EXPECT_EQ(report.yearly_availability.size(), 100u);
  for (double a : report.yearly_availability) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0 + 1e-9);
  }
}

TEST(CenturyTest, ShipOfTheseusHoldsAvailabilityHigh) {
  // No unit lasts a century, yet the pipelined system stays mostly alive.
  const auto report = RunCenturyScenario(QuickConfig());
  EXPECT_GT(report.mean_availability, 0.8);
  EXPECT_GT(report.total_failures, 400u);       // Everyone dies, repeatedly.
  EXPECT_GT(report.total_replacements, 300u);   // And is replaced in batches.
  EXPECT_GE(report.max_unit_generations, 3.0);  // Multiple generations/site.
}

TEST(CenturyTest, HarvestingFleetBeatsBatteryFleet) {
  CenturyConfig cfg = QuickConfig();
  cfg.device_class = DeviceClassKind::kEnergyHarvesting;
  const auto harvesting = RunCenturyScenario(cfg);
  cfg.device_class = DeviceClassKind::kBatteryPowered;
  const auto battery = RunCenturyScenario(cfg);
  EXPECT_GT(harvesting.mean_availability, battery.mean_availability);
  EXPECT_GT(battery.total_failures, harvesting.total_failures);
}

TEST(CenturyTest, FasterBatchCadenceImprovesAvailability) {
  CenturyConfig slow = QuickConfig();
  slow.batch.cycle_period = SimTime::Years(12);
  CenturyConfig fast = QuickConfig();
  fast.batch.cycle_period = SimTime::Years(3);
  const auto a_slow = RunCenturyScenario(slow);
  const auto a_fast = RunCenturyScenario(fast);
  EXPECT_GT(a_fast.mean_availability, a_slow.mean_availability);
}

TEST(CenturyTest, ProactiveRefreshReducesFailuresInField) {
  CenturyConfig reactive = QuickConfig();
  CenturyConfig proactive = QuickConfig();
  proactive.proactive_refresh_age = SimTime::Years(10);
  const auto r = RunCenturyScenario(reactive);
  const auto p = RunCenturyScenario(proactive);
  EXPECT_GT(p.proactive_replacements, 0u);
  EXPECT_LT(p.total_failures, r.total_failures);
  EXPECT_GE(p.mean_availability, r.mean_availability);
}

TEST(CenturyTest, TechnologyImprovementExtendsLives) {
  CenturyConfig flat = QuickConfig();
  CenturyConfig improving = QuickConfig();
  improving.life_improvement_per_decade = 1.3;
  const auto a = RunCenturyScenario(flat);
  const auto b = RunCenturyScenario(improving);
  EXPECT_LT(b.total_failures, a.total_failures);
}

TEST(CenturyTest, DeterministicForSeed) {
  const auto a = RunCenturyScenario(QuickConfig());
  const auto b = RunCenturyScenario(QuickConfig());
  EXPECT_DOUBLE_EQ(a.mean_availability, b.mean_availability);
  EXPECT_EQ(a.total_failures, b.total_failures);
  EXPECT_EQ(a.units_deployed, b.units_deployed);
}

TEST(CenturyTest, UnitsDeployedConsistent) {
  const auto report = RunCenturyScenario(QuickConfig());
  EXPECT_EQ(report.units_deployed,
            400u + report.total_replacements + report.proactive_replacements);
}

TEST(CenturyTest, SurvivalMedianBelowHorizon) {
  const auto report = RunCenturyScenario(QuickConfig());
  const auto median = report.unit_survival.MedianSurvival();
  ASSERT_TRUE(median.has_value());
  EXPECT_LT(median->ToYears(), 40.0);  // No century-scale individual units.
  EXPECT_GT(median->ToYears(), 3.0);
}

// Every transition kind profiles under its own category, in the serial
// engine and in the sampled engine's detailed windows alike.
TEST(CenturyTest, TransitionsProfileUnderTheirCategories) {
  for (const bool sampled : {false, true}) {
    CenturyConfig cfg = QuickConfig();
    cfg.fleet_size = 100;
    cfg.horizon = SimTime::Years(30);
    if (sampled) {
      cfg.sampling.mode = SimMode::kSampled;
      cfg.sampling.detailed_window = SimTime::Days(180);
      cfg.sampling.sample_period = SimTime::Days(180);  // Every span detailed.
    }
    SchedulerProfiler profiler;
    cfg.control.profiler = &profiler;
    RunCenturyScenario(cfg);
    std::set<std::string> categories;
    for (const auto& c : profiler.Categories()) {
      categories.insert(c.category);
    }
    EXPECT_EQ(categories,
              (std::set<std::string>{"century.site_failure", "century.zone_visit"}))
        << "sampled=" << sampled;
  }
}

}  // namespace
}  // namespace centsim
