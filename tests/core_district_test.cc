#include "src/core/district.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/core/district_model.h"
#include "src/sim/metrics.h"
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

// events_executed counts every transition, the failures drained from the
// failure calendar included: in the serial engine the profiler's counts
// sum to it and match the report's counters, and a one-lane sharded run
// counts more events than it has failures and gateway transitions.
TEST(DistrictTest, EventsExecutedCountsEveryTransition) {
  DistrictConfig cfg = QuickConfig();
  cfg.device_count = 200;
  cfg.horizon = SimTime::Years(20);
  SchedulerProfiler profiler;
  cfg.control.profiler = &profiler;
  const DistrictReport report = RunDistrictScenario(cfg);
  std::map<std::string, uint64_t> counts;
  uint64_t total = 0;
  for (const auto& c : profiler.Categories()) {
    counts[c.category] = c.count;
    total += c.count;
  }
  EXPECT_EQ(total, report.events_executed);
  EXPECT_EQ(counts[kDistrictDeviceFail], report.device_failures);
  EXPECT_EQ(counts[kDistrictGatewayFail], report.gateway_failures);
  EXPECT_EQ(counts[kDistrictGatewayRepair], report.gateway_repairs);

  cfg.control = RunControlHooks{};
  cfg.shard.shards = 1;
  const DistrictReport lane = RunDistrictScenario(cfg);
  ASSERT_GT(lane.device_failures, 0u);
  EXPECT_GT(lane.events_executed,
            lane.device_failures + lane.gateway_failures + lane.gateway_repairs);
}

// A serial run's progress rows count the unit failures waiting in its
// failure calendar: the last row, published at the last event, counts at
// least one pending failure per unit alive at the horizon.
TEST(DistrictTest, ProgressRowCountsPendingFailures) {
  DistrictConfig cfg = QuickConfig();
  cfg.device_count = 200;
  cfg.horizon = SimTime::Years(20);
  MetricsRegistry registry;
  cfg.metrics = &registry;
  SchedulerProfiler::Options every;
  every.queue_depth_sample_every = 1;
  SchedulerProfiler profiler(every);
  ProgressCell cell;
  cfg.control.profiler = &profiler;
  cfg.control.progress = &cell;
  const DistrictReport report = RunDistrictScenario(cfg);
  const Gauge* alive = registry.GetGauge("fleet.alive_devices", {});
  ASSERT_NE(alive, nullptr);
  ASSERT_GT(alive->value(), 0.0);
  const ProgressCell::View row = cell.Load();
  EXPECT_EQ(row.executed, report.events_executed);
  EXPECT_GE(static_cast<double>(row.pending), alive->value());
  EXPECT_GE(row.queue_entries, row.pending);
}

// --- The failure calendar's drain contract (DistrictModel::RunTo) ---------
//
// A small district with every site deployed at t = 0. Each test arms unit
// failures in the model's calendar and schedules its scheduler events by
// hand, then drains with RunTo.
class DistrictDrainTest : public ::testing::Test {
 protected:
  DistrictDrainTest() : sim_(config_.seed), model_(sim_, config_, report_) {
    for (uint32_t d = 0; d < model_.size(); ++d) {
      model_.DeployAt(d, SimTime());
    }
  }

  static DistrictConfig Config() {
    DistrictConfig cfg;
    cfg.seed = 7;
    cfg.device_count = 40;
    cfg.area_km2 = 1.0;
    cfg.zone_grid = 2;
    cfg.horizon = SimTime::Years(2);
    return cfg;
  }

  // ZoneVisitAt's engine: redeploys a visit's dead sites and notes them.
  struct Engine {
    DistrictModel& model;
    std::vector<uint32_t> redeployed;
    void RedeployAt(std::span<const uint32_t> slots, SimTime at) {
      for (uint32_t d : slots) {
        model.DeployAt(d, at);
        redeployed.push_back(d);
      }
    }
  };

  Scheduler& sched() { return sim_.scheduler(); }
  bool alive(uint32_t d) const { return model_.fleet().alive(d); }

  const DistrictConfig config_ = Config();
  Simulation sim_;
  DistrictReport report_;
  DistrictModel model_;
};

// A visit wins its microsecond: the site is still alive when its zone is
// visited, so the visit leaves it to fail after.
TEST_F(DistrictDrainTest, FailureAtAVisitsMicrosecondIsNotRedeployedByIt) {
  Engine engine{model_, {}};
  const SimTime t = SimTime::Days(30);
  const uint32_t zone = model_.fleet().zone(0);
  model_.ArmFailure(0, t);
  sched().ScheduleAt(t, [&] { model_.ZoneVisitAt(zone, t, engine); }, kDistrictVisit);
  model_.RunTo(t);
  EXPECT_TRUE(engine.redeployed.empty());
  EXPECT_FALSE(alive(0));
  EXPECT_EQ(report_.device_failures, 1u);
  EXPECT_EQ(report_.device_replacements, 0u);
  EXPECT_EQ(sched().executed_count(), 2u);
}

// A failure at the limit runs before RunTo stops there, at a checkpoint
// barrier and at the horizon alike; one a microsecond later waits.
TEST_F(DistrictDrainTest, FailureAtTheLimitRunsAndOneMicrosecondLaterWaits) {
  const SimTime barrier = SimTime::Years(1);
  const SimTime horizon = config_.horizon;
  const SimTime micro = SimTime::Micros(1);
  model_.ArmFailure(0, barrier);
  model_.ArmFailure(1, barrier + micro);
  model_.ArmFailure(2, horizon);
  model_.ArmFailure(3, horizon + micro);

  model_.RunTo(barrier);
  EXPECT_EQ(sim_.Now(), barrier);
  EXPECT_FALSE(alive(0));
  EXPECT_TRUE(alive(1));
  EXPECT_EQ(model_.calendar().pending(), 3u);
  EXPECT_EQ(model_.calendar().Earliest(), barrier + micro);

  model_.RunTo(horizon);
  EXPECT_EQ(sim_.Now(), horizon);
  EXPECT_FALSE(alive(1));
  EXPECT_FALSE(alive(2));
  EXPECT_TRUE(alive(3));
  EXPECT_EQ(model_.fleet().failed_at(2), horizon);
  EXPECT_EQ(report_.device_failures, 3u);
  EXPECT_EQ(model_.calendar().pending(), 1u);  // Past the horizon: kept, never run.
  EXPECT_EQ(model_.calendar().Earliest(), horizon + micro);
}

// A scheduler event arms a failure into the bucket the drain is reading,
// ahead of that bucket's later entries: it still runs in time order, and
// every failure is counted and profiled as an event.
TEST_F(DistrictDrainTest, FailureArmedIntoTheBucketBeingDrainedRunsInTimeOrder) {
  SchedulerProfiler::Options every;
  every.time_sample_every = 1;
  SchedulerProfiler profiler(every);
  sched().SetProfiler(&profiler);
  const SimTime hour = SimTime::Hours(1);
  model_.ArmFailure(4, hour);
  model_.ArmFailure(5, hour * 5);
  sched().ScheduleAt(hour * 2, [&] { model_.ArmFailure(6, hour * 3); });
  bool checked = false;
  sched().ScheduleAt(hour * 4, [&] {
    checked = true;
    EXPECT_FALSE(alive(6));
    EXPECT_TRUE(alive(5));
  });
  model_.RunTo(SimTime::Days(1));
  sched().SetProfiler(nullptr);

  EXPECT_TRUE(checked);
  EXPECT_EQ(model_.fleet().failed_at(6), hour * 3);
  EXPECT_EQ(model_.fleet().failed_at(5), hour * 5);
  std::vector<SimTime> order;
  std::vector<std::string> categories;
  for (const SchedulerProfiler::Span& span : profiler.spans()) {
    order.push_back(span.sim_at);
    categories.emplace_back(span.category);
  }
  EXPECT_EQ(order, (std::vector<SimTime>{hour, hour * 2, hour * 3, hour * 4, hour * 5}));
  EXPECT_EQ(categories, (std::vector<std::string>{kDistrictDeviceFail, kDefaultEventCategory,
                                                  kDistrictDeviceFail, kDefaultEventCategory,
                                                  kDistrictDeviceFail}));
  EXPECT_EQ(sched().executed_count(), 5u);
}

}  // namespace
}  // namespace centsim
