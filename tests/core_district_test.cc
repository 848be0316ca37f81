#include "src/core/district.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/sim/profiler.h"
#include "src/sim/thread_pool.h"

namespace centsim {
namespace {

DistrictConfig QuickConfig() {
  DistrictConfig cfg;
  cfg.seed = 4;
  cfg.device_count = 800;
  cfg.area_km2 = 9.0;
  cfg.horizon = SimTime::Years(40);
  cfg.batch_cycle = SimTime::Years(6);
  return cfg;
}

TEST(DistrictTest, PlansGatewaysAndCovers) {
  const auto report = RunDistrictScenario(QuickConfig());
  EXPECT_GT(report.gateway_count, 1u);
  EXPECT_GT(report.initial_coverage, 0.9);
}

// The serial run starts its draw pool with the first batch of
// SeriesSystem::kParallelLifeGrain lives, which 800 sites never reach.
TEST(DistrictTest, SmallDistrictStartsNoThread) {
  const uint64_t before = ThreadPool::WorkersStarted();
  const auto report = RunDistrictScenario(QuickConfig());
  EXPECT_GT(report.device_replacements, 0u);
  EXPECT_EQ(ThreadPool::WorkersStarted(), before);
}

TEST(DistrictTest, ServiceBoundedByDeviceAvailability) {
  const auto report = RunDistrictScenario(QuickConfig());
  EXPECT_GT(report.mean_service_availability, 0.0);
  EXPECT_LE(report.mean_service_availability, report.mean_device_availability + 1e-12);
  EXPECT_GE(report.CoverageLoss(), 0.0);
  EXPECT_EQ(report.yearly_service.size(), 40u);
}

TEST(DistrictTest, FleetStaysServiceableForDecades) {
  const auto report = RunDistrictScenario(QuickConfig());
  EXPECT_GT(report.mean_service_availability, 0.6);
  EXPECT_GT(report.device_failures, 200u);
  EXPECT_GT(report.device_replacements, 100u);
  EXPECT_GT(report.gateway_failures, 10u);
  EXPECT_EQ(report.gateway_repairs + /*pending repairs*/ 0u,
            report.gateway_repairs);  // Accounting self-consistent.
}

TEST(DistrictTest, SlowGatewayRepairDegradesServiceOnly) {
  DistrictConfig fast = QuickConfig();
  fast.gateway_repair_delay = SimTime::Days(3);
  DistrictConfig slow = QuickConfig();
  slow.gateway_repair_delay = SimTime::Days(120);
  const auto a = RunDistrictScenario(fast);
  const auto b = RunDistrictScenario(slow);
  // Device availability is identical dynamics; service must suffer more
  // under slow gateway repair.
  EXPECT_GT(a.mean_service_availability, b.mean_service_availability);
  EXPECT_GT(b.CoverageLoss(), a.CoverageLoss());
}

TEST(DistrictTest, LongerRangeFewerGateways) {
  DistrictConfig short_range = QuickConfig();
  short_range.gateway_range_m = 500.0;
  DistrictConfig long_range = QuickConfig();
  long_range.gateway_range_m = 1500.0;
  const auto a = RunDistrictScenario(short_range);
  const auto b = RunDistrictScenario(long_range);
  EXPECT_GT(a.gateway_count, b.gateway_count);
}

TEST(DistrictTest, BatteryFleetWorseThanHarvesting) {
  DistrictConfig harvesting = QuickConfig();
  DistrictConfig battery = QuickConfig();
  battery.device_class = DeviceClassKind::kBatteryPowered;
  const auto a = RunDistrictScenario(harvesting);
  const auto b = RunDistrictScenario(battery);
  EXPECT_GT(a.mean_service_availability, b.mean_service_availability);
  EXPECT_GT(b.device_failures, a.device_failures);
}

TEST(DistrictTest, DeterministicPerSeed) {
  const auto a = RunDistrictScenario(QuickConfig());
  const auto b = RunDistrictScenario(QuickConfig());
  EXPECT_DOUBLE_EQ(a.mean_service_availability, b.mean_service_availability);
  EXPECT_EQ(a.device_failures, b.device_failures);
  EXPECT_EQ(a.gateway_failures, b.gateway_failures);
}

// Every transition kind profiles under its own category, in the serial
// engine and in the sampled engine's detailed windows alike.
TEST(DistrictTest, TransitionsProfileUnderTheirCategories) {
  for (const bool sampled : {false, true}) {
    DistrictConfig cfg = QuickConfig();
    cfg.device_count = 200;
    cfg.horizon = SimTime::Years(20);
    if (sampled) {
      cfg.sampling.mode = SimMode::kSampled;
      cfg.sampling.detailed_window = SimTime::Days(180);
      cfg.sampling.sample_period = SimTime::Days(180);  // Every span detailed.
    }
    SchedulerProfiler profiler;
    cfg.control.profiler = &profiler;
    const DistrictReport report = RunDistrictScenario(cfg);
    ASSERT_GT(report.gateway_repairs, 0u);
    std::set<std::string> categories;
    for (const auto& c : profiler.Categories()) {
      categories.insert(c.category);
    }
    EXPECT_EQ(categories, (std::set<std::string>{"district.device_fail", "district.zone_visit",
                                                 "district.gateway_fail",
                                                 "district.gateway_repair"}))
        << "sampled=" << sampled;
  }
}

}  // namespace
}  // namespace centsim
