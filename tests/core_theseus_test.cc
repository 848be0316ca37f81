#include "src/core/theseus.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "src/core/century_model.h"
#include "src/core/fleet_codec.h"
#include "src/sim/profiler.h"
#include "src/snapshot/snapshot.h"

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

// A serial run's progress rows count the site failures waiting in its
// failure calendar: the last row, published at the last event, counts at
// least one pending failure per unit alive at the horizon.
TEST(CenturyTest, ProgressRowCountsPendingFailures) {
  CenturyConfig cfg = QuickConfig();
  cfg.fleet_size = 100;
  cfg.horizon = SimTime::Years(30);
  SchedulerProfiler::Options every;
  every.queue_depth_sample_every = 1;
  SchedulerProfiler profiler(every);
  ProgressCell cell;
  cfg.control.profiler = &profiler;
  cfg.control.progress = &cell;
  const CenturyReport report = RunCenturyScenario(cfg);
  // Without refresh, the censored observations are the horizon's survivors.
  uint64_t survivors = 0;
  report.unit_survival.ForEachObservation(
      [&survivors](const SurvivalObservation& o) { survivors += o.failed ? 0 : 1; });
  const ProgressCell::View row = cell.Load();
  ASSERT_GT(survivors, 0u);
  EXPECT_EQ(row.executed, report.events_executed);
  EXPECT_GE(row.pending, survivors);
  EXPECT_GE(row.queue_entries, row.pending);
}

// --- The failure calendar's drain contract (DetailedCentury::RunTo) -------
//
// The district's contract (DistrictDrainTest, core_district_test.cc) with
// proactive refresh: four sites in two zones, every one deployed at t = 0
// with no failure armed. Each test arms failures and schedules zone visits
// by hand, then drains with RunTo; checkpoints go to a directory of its own.
class CenturyDrainTest : public ::testing::Test {
 protected:
  CenturyDrainTest() : sim_(config_.seed), century_(sim_, config_, report_) {
    for (uint32_t idx = 0; idx < config_.fleet_size; ++idx) {
      century_.model().DeployAt(idx, SimTime());
    }
  }
  ~CenturyDrainTest() override { std::filesystem::remove_all(config_.snapshot.checkpoint_dir); }

  static CenturyConfig Config() {
    CenturyConfig cfg;
    cfg.seed = 7;
    cfg.fleet_size = 4;
    cfg.horizon = SimTime::Years(2);
    cfg.batch.zone_count = 2;
    cfg.proactive_refresh_age = SimTime::Days(100);
    cfg.snapshot.checkpoint_every = SimTime::Years(1);
    cfg.snapshot.checkpoint_dir =
        testing::TempDir() + "century_drain_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    return cfg;
  }

  // Zone `zone`'s visit at `at`, as the engine arms one.
  void ScheduleVisit(uint32_t zone, SimTime at) {
    sim_.scheduler().ScheduleAt(
        at, [this, zone, at] { century_.model().ZoneVisitAt(zone, at, century_); },
        kCenturyVisit);
  }

  // A pending failure of the checkpoint written last: an alive slot's
  // nonzero deadline in its fleet chunk. (The fixture's sites are deployed
  // with no failure armed, and their deadlines stay 0.)
  struct SavedFailure {
    uint64_t site;
    int64_t at_us;
  };
  std::vector<SavedFailure> SavedFailures() {
    SnapshotReader reader;
    std::string error;
    EXPECT_TRUE(reader.Open(report_.last_checkpoint_path, &error)) << error;
    ByteReader chunk = reader.Chunk(SnapshotTag('f', 'l', 'e', 't'));
    std::vector<SavedFailure> failures;
    const uint64_t slots = chunk.U64();
    for (uint64_t site = 0; site < slots && chunk.ok(); ++site) {
      const DeviceFleet::SlotState slot = DecodeFleetSlot(chunk);
      if (slot.alive != 0 && slot.deadline_us != 0) {
        failures.push_back({site, slot.deadline_us});
      }
    }
    EXPECT_TRUE(chunk.ok());
    return failures;
  }

  bool alive(uint32_t idx) { return century_.model().fleet().alive(idx); }
  uint64_t executed() { return sim_.scheduler().executed_count(); }

  const CenturyConfig config_ = Config();
  Simulation sim_;
  CenturyReport report_;
  DetailedCentury century_;
};

// A visit wins its microsecond: the site is still alive when its zone is
// visited, so the visit leaves it to fail after.
TEST_F(CenturyDrainTest, FailureAtAVisitsMicrosecondIsNotReplacedByIt) {
  const SimTime t = SimTime::Days(30);
  century_.ArmSiteFailure(t, 0);
  ScheduleVisit(0, t);
  century_.RunTo(t);
  EXPECT_FALSE(alive(0));
  EXPECT_EQ(report_.total_failures, 1u);
  EXPECT_EQ(report_.total_replacements, 0u);
  EXPECT_EQ(executed(), 2u);
}

// A visit past the refresh age retires zone 0's units (sites 0 and 2) and
// deploys their successors. Site 0's retired unit keeps its failure in the
// calendar: it is not saved at the next barrier, and when the drain passes
// it, it neither runs nor counts as an event. Only the successors' own
// failures, as saved, run.
TEST_F(CenturyDrainTest, RefreshedUnitsFailureNeitherRunsNorCountsNorIsSaved) {
  const SimTime retired_failure = SimTime::Days(300);
  const SimTime barrier = SimTime::Days(250);
  century_.ArmSiteFailure(retired_failure, 0);
  ScheduleVisit(0, SimTime::Days(200));
  century_.RunTo(barrier);
  ASSERT_EQ(report_.proactive_replacements, 2u);
  century_.SaveCheckpoint(barrier);
  ASSERT_EQ(report_.checkpoints_written, 1u);

  const std::vector<SavedFailure> saved = SavedFailures();
  uint64_t due = report_.total_failures;  // The successors' failures through the stale time.
  for (const SavedFailure& r : saved) {
    EXPECT_TRUE(r.site == 0 || r.site == 2) << "site " << r.site;
    EXPECT_TRUE(alive(static_cast<uint32_t>(r.site)));
    EXPECT_NE(r.at_us, retired_failure.micros());
    due += r.at_us <= retired_failure.micros() ? 1 : 0;
  }
  EXPECT_EQ(saved.size(), static_cast<size_t>(alive(0)) + static_cast<size_t>(alive(2)));

  century_.RunTo(retired_failure);
  EXPECT_NE(century_.model().fleet().failed_at(0), retired_failure);
  EXPECT_EQ(report_.total_failures, due);
  EXPECT_EQ(executed(), 1u + due);  // The visit and the successors' failures.
}

// A failure at the limit runs before RunTo stops there, at a checkpoint
// barrier (before the checkpoint is cut) and at the horizon alike; one a
// microsecond later waits.
TEST_F(CenturyDrainTest, FailureAtTheLimitRunsAndOneMicrosecondLaterWaits) {
  const SimTime barrier = SimTime::Years(1);
  const SimTime horizon = config_.horizon;
  const SimTime micro = SimTime::Micros(1);
  century_.ArmSiteFailure(barrier, 0);
  century_.ArmSiteFailure(barrier + micro, 1);
  century_.ArmSiteFailure(horizon, 2);
  century_.ArmSiteFailure(horizon + micro, 3);

  century_.RunTo(barrier);
  EXPECT_EQ(sim_.Now(), barrier);
  EXPECT_FALSE(alive(0));
  EXPECT_TRUE(alive(1));
  century_.SaveCheckpoint(barrier);
  std::set<uint64_t> saved_sites;
  for (const SavedFailure& r : SavedFailures()) {
    saved_sites.insert(r.site);
  }
  EXPECT_EQ(saved_sites, (std::set<uint64_t>{1, 2, 3}));

  century_.RunTo(horizon);
  EXPECT_EQ(sim_.Now(), horizon);
  EXPECT_FALSE(alive(1));
  EXPECT_FALSE(alive(2));
  EXPECT_TRUE(alive(3));
  EXPECT_EQ(century_.model().fleet().failed_at(2), horizon);
  EXPECT_EQ(report_.total_failures, 3u);
  EXPECT_EQ(executed(), 3u);
}

}  // namespace
}  // namespace centsim
