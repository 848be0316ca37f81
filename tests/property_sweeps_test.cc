// Cross-cutting property sweeps (TEST_P) over parameter spaces that the
// single-point tests do not cover.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/district.h"
#include "src/core/theseus.h"
#include "src/radio/link_budget.h"
#include "src/radio/lora.h"
#include "src/reliability/component.h"
#include "src/reliability/hazard.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/sim/stats.h"
#include "src/snapshot/snapshot.h"
#include "src/telemetry/run_manifest.h"

namespace centsim {
namespace {

// --- LoRa PER monotonicity across every SF ------------------------------

class LoraSfSweep : public ::testing::TestWithParam<LoraSf> {};

TEST_P(LoraSfSweep, PerMonotoneNonIncreasingInPower) {
  const LoraSf sf = GetParam();
  double prev = 1.1;
  for (double dbm = -150.0; dbm <= -90.0; dbm += 1.0) {
    const double per = LoraPhy::PacketErrorRate(sf, dbm);
    EXPECT_LE(per, prev + 1e-12) << "at " << dbm << " dBm";
    prev = per;
  }
}

TEST_P(LoraSfSweep, AirtimeMonotoneInPayload) {
  LoraConfig cfg;
  cfg.sf = GetParam();
  SimTime prev;
  for (size_t payload = 1; payload <= 64; payload += 7) {
    const SimTime t = LoraPhy::Airtime(cfg, payload);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST_P(LoraSfSweep, SensitivityBelowNoiseFloorForHighSf) {
  const LoraSf sf = GetParam();
  const double sens = LoraPhy::SensitivityDbm(sf);
  // All LoRa SFs demodulate below the 125 kHz noise floor + 0 dB.
  EXPECT_LT(sens, NoiseFloorDbm(125e3, 6.0) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllSfs, LoraSfSweep,
                         ::testing::Values(LoraSf::kSf7, LoraSf::kSf8, LoraSf::kSf9,
                                           LoraSf::kSf10, LoraSf::kSf11, LoraSf::kSf12));

// --- Series systems: more components never help -------------------------

class SeriesGrowth : public ::testing::TestWithParam<int> {};

TEST_P(SeriesGrowth, AddingComponentsNeverImprovesSurvival) {
  const int extra = GetParam();
  SeriesSystem base;
  base.Add(MakeMicrocontroller());
  SeriesSystem grown = base;
  for (int i = 0; i < extra; ++i) {
    grown.Add(MakeConnectorSolder());
  }
  for (double y : {5.0, 15.0, 30.0}) {
    EXPECT_LE(grown.Survival(SimTime::Years(y)), base.Survival(SimTime::Years(y)) + 1e-12);
  }
  EXPECT_LE(grown.Mttf().ToYears(), base.Mttf().ToYears() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Growth, SeriesGrowth, ::testing::Values(1, 2, 4, 8));

// --- Scheduler stress: random interleaving vs reference ordering --------

class SchedulerStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerStress, RandomScheduleCancelsStayConsistent) {
  const uint64_t seed = GetParam();
  RandomStream rng(seed);
  Scheduler sched;
  std::vector<std::pair<SimTime, int>> fired;
  std::vector<EventId> ids;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const SimTime at = SimTime::Micros(static_cast<int64_t>(rng.NextBelow(100000)));
    ids.push_back(sched.ScheduleAt(at, [&fired, at, i] { fired.push_back({at, i}); }));
  }
  // Cancel a random third.
  int cancelled = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(1.0 / 3.0)) {
      ASSERT_TRUE(sched.Cancel(ids[i]));
      ++cancelled;
    }
  }
  sched.RunUntil(SimTime::Seconds(1));
  EXPECT_EQ(fired.size(), static_cast<size_t>(n - cancelled));
  // Fired order must be non-decreasing in time.
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_GE(fired[i].first, fired[i - 1].first);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerStress, ::testing::Values(1u, 17u, 99u, 1234u));

// --- Histogram quantiles track exact quantiles ---------------------------

class QuantileAgreement : public ::testing::TestWithParam<double> {};

TEST_P(QuantileAgreement, HistogramNearExactForNormalData) {
  const double q = GetParam();
  RandomStream rng(7);
  Histogram hist(-5.0, 5.0, 400);
  SampleSet exact;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.Normal(0.0, 1.0);
    hist.Add(v);
    exact.Add(v);
  }
  EXPECT_NEAR(hist.Quantile(q), exact.Quantile(q), 0.05) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, QuantileAgreement,
                         ::testing::Values(0.05, 0.25, 0.5, 0.75, 0.95));

// --- Weibull conditional-draw property across shapes ---------------------

class WeibullConditional : public ::testing::TestWithParam<double> {};

TEST_P(WeibullConditional, RemainingLifeMatchesConditionalSurvival) {
  const double shape = GetParam();
  WeibullHazard h(shape, SimTime::Years(12));
  const SimTime age = SimTime::Years(6);
  const SimTime extra = SimTime::Years(3);
  RandomStream rng(31);
  int survived = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (h.SampleRemainingLife(rng, age) > extra) {
      ++survived;
    }
  }
  const double expected = h.Survival(age + extra) / h.Survival(age);
  EXPECT_NEAR(static_cast<double>(survived) / n, expected, 0.012);
}

INSTANTIATE_TEST_SUITE_P(Shapes, WeibullConditional, ::testing::Values(0.6, 1.0, 2.0, 4.0));

// --- Century: a resumed run continues the straight one -----------------
//
// Over device classes, refresh ages, life improvement and whole or
// fractional horizons (a partial last year), a serial run resumed from its
// year-20 checkpoint continues the straight run exactly, and the sampled
// engine's availability, integrated in exact integer site-microseconds,
// does not move with where its windows land.

// Device class, proactive refresh age (years), life improvement per
// decade, horizon (years).
using CenturyPoint = std::tuple<DeviceClassKind, int, double, double>;

class CenturyEngineParity : public ::testing::TestWithParam<CenturyPoint> {
 protected:
  static CenturyConfig Config() {
    const auto [device_class, refresh_years, improvement, horizon_years] = GetParam();
    CenturyConfig cfg;
    cfg.seed = 31;
    cfg.fleet_size = 60;
    cfg.horizon = SimTime::Years(horizon_years);
    cfg.device_class = device_class;
    cfg.batch.zone_count = 4;
    cfg.batch.cycle_period = SimTime::Years(4);
    cfg.proactive_refresh_age = SimTime::Years(refresh_years);
    cfg.life_improvement_per_decade = improvement;
    return cfg;
  }

  static CenturyConfig Sampled(SimTime window, SimTime period) {
    CenturyConfig cfg = Config();
    cfg.sampling.mode = SimMode::kSampled;
    cfg.sampling.detailed_window = window;
    cfg.sampling.sample_period = period;
    cfg.sampling.min_windows = 4;
    cfg.sampling.ci_target = 0.05;
    return cfg;
  }
};

std::string CenturyDigest(const CenturyReport& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << r.mean_availability << '|' << r.min_yearly_availability << '|' << r.total_failures
      << '|' << r.total_replacements << '|' << r.proactive_replacements << '|'
      << r.units_deployed << '|' << r.max_unit_generations;
  for (double v : r.yearly_availability) {
    out << '|' << v;
  }
  return ConfigDigest(out.str());
}

// Every field of the digest, then every Kaplan-Meier observation in order
// and the event count.
std::string CenturyPin(const CenturyReport& r) {
  std::ostringstream out;
  out << CenturyDigest(r);
  r.unit_survival.ForEachObservation([&out](const SurvivalObservation& o) {
    out << '|' << o.time.micros() << (o.failed ? 'f' : 'c');
  });
  out << '|' << r.events_executed;
  return ConfigDigest(out.str());
}

std::string CenturyPointLabel(const CenturyPoint& point) {
  const auto [device_class, refresh_years, improvement, horizon_years] = point;
  std::string name =
      device_class == DeviceClassKind::kBatteryPowered ? "Battery" : "Harvesting";
  name += "Refresh";
  name += std::to_string(refresh_years);
  name += improvement == 1.0 ? "SameLife" : "LongerLife";
  name += horizon_years == std::floor(horizon_years) ? "WholeYears" : "PartialYear";
  return name;
}

// The serial engine's resume path: a checkpoint carries the pending visits
// and the failure calendar's pending failures as timer records, which a
// resumed run arms again. Checkpointing moves nothing, and the run resumed
// from year 20 equals the straight run.
TEST_P(CenturyEngineParity, SerialCheckpointResumesAtYearTwenty) {
  const std::string dir = testing::TempDir() + "century_serial_parity_" +
                          CenturyPointLabel(GetParam());
  std::filesystem::remove_all(dir);
  CenturyConfig cfg = Config();
  const CenturyReport plain = RunCenturyScenario(cfg);
  ASSERT_GT(plain.total_failures, 0u);
  cfg.snapshot.checkpoint_every = SimTime::Years(10);
  cfg.snapshot.checkpoint_dir = dir;
  const CenturyReport straight = RunCenturyScenario(cfg);
  ASSERT_EQ(straight.checkpoints_written, 3u);
  EXPECT_EQ(CenturyPin(straight), CenturyPin(plain));

  CenturyConfig resumed = Config();
  resumed.snapshot.resume_from = dir + "/" + CheckpointFileName(SimTime::Years(20).micros());
  const CenturyReport r = RunCenturyScenario(resumed);
  EXPECT_GT(r.restore_seconds, 0.0);
  EXPECT_EQ(CenturyPin(r), CenturyPin(straight));
  EXPECT_EQ(r.events_executed, straight.events_executed);
  std::filesystem::remove_all(dir);
}

TEST_P(CenturyEngineParity, SampledAvailabilityInvariantUnderWindowPlacement) {
  const CenturyReport sparse = RunCenturyScenario(Sampled(SimTime::Days(7), SimTime::Days(170)));
  const CenturyReport dense = RunCenturyScenario(Sampled(SimTime::Days(45), SimTime::Days(90)));
  ASSERT_NE(sparse.sim_skipped_us, dense.sim_skipped_us);
  EXPECT_EQ(sparse.mean_availability, dense.mean_availability);
  EXPECT_EQ(sparse.yearly_availability, dense.yearly_availability);
}

std::string CenturyPointName(const ::testing::TestParamInfo<CenturyPoint>& info) {
  return CenturyPointLabel(info.param);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CenturyEngineParity,
    ::testing::Combine(::testing::Values(DeviceClassKind::kBatteryPowered,
                                         DeviceClassKind::kEnergyHarvesting),
                       ::testing::Values(0, 10), ::testing::Values(1.0, 1.05),
                       ::testing::Values(40.0, 37.5)),
    CenturyPointName);

// --- District: one report at every lane count ---------------------------
//
// Every district lane replays every gateway's keyed fail/repair timeline
// and keys each device life by (site, unit generation), so the sharded
// report is the same at any lane count, and a checkpoint written under one
// lane count resumes under another. Over both device classes, zone grids 1
// to 3, a gateway failure and its repair at one timestamp (repair delay 0)
// and a partial last year, the digest at 1 lane equals the digest at 2, 3
// and 7, and a 2-lane checkpoint resumed at 3 lanes equals the straight
// run. The serial engine's own checkpoint, resumed, equals its straight
// run too.

// Device class, zone grid, gateway repair delay (days), partial last year.
using DistrictPoint = std::tuple<DeviceClassKind, uint32_t, int, bool>;

std::string DistrictPointLabel(const DistrictPoint& point) {
  const auto [device_class, zone_grid, delay_days, partial_year] = point;
  std::string name =
      device_class == DeviceClassKind::kBatteryPowered ? "Battery" : "Harvesting";
  name += "Grid" + std::to_string(zone_grid);
  name += "Delay" + std::to_string(delay_days);
  name += partial_year ? "PartialYear" : "WholeYears";
  return name;
}

class DistrictShardParity : public ::testing::TestWithParam<DistrictPoint> {
 protected:
  static DistrictConfig Config() {
    const auto [device_class, zone_grid, delay_days, partial_year] = GetParam();
    DistrictConfig cfg;
    cfg.seed = 900 + zone_grid;
    cfg.device_count = 500 + 211 * zone_grid;
    cfg.area_km2 = 3.0 + zone_grid;
    cfg.zone_grid = zone_grid;
    cfg.horizon = partial_year ? SimTime::Years(7) + SimTime::Days(120) : SimTime::Years(9);
    cfg.gateway_range_m = 500.0;
    cfg.gateway_repair_delay = SimTime::Days(delay_days);
    cfg.batch_cycle = SimTime::Years(2);
    cfg.device_class = device_class;
    cfg.shard.shards = 1;
    return cfg;
  }
};

std::string DistrictDigest(const DistrictReport& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << r.gateway_count << '|' << r.initial_coverage << '|' << r.mean_device_availability
      << '|' << r.mean_service_availability << '|' << r.min_yearly_service << '|'
      << r.device_failures << '|' << r.device_replacements << '|' << r.gateway_failures
      << '|' << r.gateway_repairs;
  for (double v : r.yearly_service) {
    out << '|' << v;
  }
  return ConfigDigest(out.str());
}

TEST_P(DistrictShardParity, DigestEqualsEveryLaneCount) {
  DistrictConfig cfg = Config();
  const DistrictReport one_lane = RunDistrictScenario(cfg);
  ASSERT_GT(one_lane.device_failures, 0u);
  ASSERT_GT(one_lane.gateway_failures, 0u);
  const std::string digest = DistrictDigest(one_lane);
  for (const uint32_t shards : {2u, 3u, 7u}) {
    cfg.shard.shards = shards;
    EXPECT_EQ(DistrictDigest(RunDistrictScenario(cfg)), digest) << "shards=" << shards;
  }
}

TEST_P(DistrictShardParity, TwoLaneCheckpointResumesAtThreeLanes) {
  const std::string dir = testing::TempDir() + "district_shard_parity_" +
                          DistrictPointLabel(GetParam());
  std::filesystem::remove_all(dir);
  DistrictConfig cfg = Config();
  cfg.shard.shards = 2;
  cfg.snapshot.checkpoint_every = SimTime::Years(2);
  cfg.snapshot.checkpoint_dir = dir;
  const DistrictReport straight = RunDistrictScenario(cfg);
  ASSERT_GE(straight.checkpoints_written, 2u);

  DistrictConfig resumed = Config();
  resumed.shard.shards = 3;
  resumed.snapshot.resume_from = dir + "/" + CheckpointFileName(SimTime::Years(4).micros());
  const DistrictReport r = RunDistrictScenario(resumed);
  EXPECT_GT(r.restore_seconds, 0.0);
  EXPECT_EQ(DistrictDigest(r), DistrictDigest(straight));
  std::filesystem::remove_all(dir);
}

// The serial engine's resume path: its failures wait in the model's
// calendar, and a `district` checkpoint carries them as timer records that
// a resumed run arms into the calendar again.
TEST_P(DistrictShardParity, SerialCheckpointResumesAtYearFour) {
  const std::string dir = testing::TempDir() + "district_serial_parity_" +
                          DistrictPointLabel(GetParam());
  std::filesystem::remove_all(dir);
  DistrictConfig cfg = Config();
  cfg.shard.shards = 0;
  const DistrictReport plain = RunDistrictScenario(cfg);
  cfg.snapshot.checkpoint_every = SimTime::Years(2);
  cfg.snapshot.checkpoint_dir = dir;
  const DistrictReport straight = RunDistrictScenario(cfg);
  ASSERT_GE(straight.checkpoints_written, 2u);
  EXPECT_EQ(DistrictDigest(straight), DistrictDigest(plain));

  DistrictConfig resumed = Config();
  resumed.shard.shards = 0;
  resumed.snapshot.resume_from = dir + "/" + CheckpointFileName(SimTime::Years(4).micros());
  const DistrictReport r = RunDistrictScenario(resumed);
  EXPECT_GT(r.restore_seconds, 0.0);
  EXPECT_EQ(DistrictDigest(r), DistrictDigest(straight));
  EXPECT_EQ(r.events_executed, straight.events_executed);
  std::filesystem::remove_all(dir);
}

std::string DistrictPointName(const ::testing::TestParamInfo<DistrictPoint>& info) {
  return DistrictPointLabel(info.param);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DistrictShardParity,
    ::testing::Combine(::testing::Values(DeviceClassKind::kBatteryPowered,
                                         DeviceClassKind::kEnergyHarvesting),
                       ::testing::Values(1u, 2u, 3u), ::testing::Values(0, 30),
                       ::testing::Values(false, true)),
    DistrictPointName);

// --- A partial last year is a rate over the span it covers ----------------

SamplingPlan HalfYearSampling() {
  SamplingPlan plan;
  plan.mode = SimMode::kSampled;
  plan.detailed_window = SimTime::Days(7);
  plan.sample_period = SimTime::Days(30);
  plan.min_windows = 4;
  plan.ci_target = 0.05;
  return plan;
}

// Over a half-year horizon, year 0 is the whole run, so its rate is the
// run's mean: exactly, since every engine converts the same exact integer
// integral over the same span.
TEST(PartialYearTest, HalfYearHorizonReportsTheMeanAsYearZero) {
  CenturyConfig century;
  century.seed = 31;
  century.fleet_size = 60;
  century.horizon = SimTime::Years(0.5);
  century.batch.zone_count = 4;
  century.batch.cycle_period = SimTime::Days(60);
  std::vector<CenturyConfig> centuries(2, century);
  centuries[1].sampling = HalfYearSampling();
  for (const CenturyConfig& cfg : centuries) {
    const CenturyReport r = RunCenturyScenario(cfg);
    ASSERT_EQ(r.yearly_availability.size(), 1u);
    EXPECT_GT(r.mean_availability, 0.9);
    EXPECT_EQ(r.yearly_availability[0], r.mean_availability)
        << "sampled " << cfg.sampling.enabled();
    EXPECT_EQ(r.min_yearly_availability, r.mean_availability);
  }

  DistrictConfig district;
  district.seed = 31;
  district.device_count = 400;
  district.area_km2 = 4.0;
  district.zone_grid = 2;
  district.horizon = SimTime::Years(0.5);
  district.batch_cycle = SimTime::Days(60);
  std::vector<DistrictConfig> districts(3, district);
  districts[1].shard.shards = 2;
  districts[2].sampling = HalfYearSampling();
  for (const DistrictConfig& cfg : districts) {
    const DistrictReport r = RunDistrictScenario(cfg);
    ASSERT_EQ(r.yearly_service.size(), 1u);
    EXPECT_GT(r.mean_service_availability, 0.5);
    EXPECT_EQ(r.yearly_service[0], r.mean_service_availability)
        << "shards " << cfg.shard.shards << ", sampled " << cfg.sampling.enabled();
  }
}

// A 37.5-year century's last half year is a rate like any other year's,
// not about half of one.
TEST(PartialYearTest, FractionalCenturyLastYearIsNotHalved) {
  CenturyConfig cfg;
  cfg.seed = 31;
  cfg.fleet_size = 60;
  cfg.horizon = SimTime::Years(37.5);
  cfg.device_class = DeviceClassKind::kBatteryPowered;
  cfg.batch.zone_count = 4;
  cfg.batch.cycle_period = SimTime::Years(4);
  const CenturyReport r = RunCenturyScenario(cfg);
  ASSERT_EQ(r.yearly_availability.size(), 38u);
  std::printf("century 37.5 y: year 36 %.4f, year 37 %.4f\n", r.yearly_availability[36],
              r.yearly_availability[37]);
  EXPECT_GT(r.yearly_availability[37], 0.75 * r.yearly_availability[36]);
  EXPECT_LE(r.yearly_availability[37], 1.0);
}

}  // namespace
}  // namespace centsim
