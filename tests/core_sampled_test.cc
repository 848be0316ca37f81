// Sampled-engine parity and snapshot-portability tests (ROADMAP item 2).
//
// The load-bearing property is window-placement invariance: because both
// sampled drivers key every boundary RNG draw per entity, the composite
// trajectory (every failure, visit, and replacement) is identical no
// matter where the detailed windows land — and a run whose sample period
// equals its window length (all fast-forwards zero-length) is the same
// trajectory again, which pins the zero-length-fast-forward no-op
// contract end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/century_model.h"
#include "src/core/district.h"
#include "src/core/district_model.h"
#include "src/core/theseus.h"
#include "src/mgmt/batch_project.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/sampling.h"
#include "src/sim/thread_pool.h"
#include "src/sim/time.h"

namespace centsim {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) : path_(testing::TempDir() + name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

SamplingPlan QuickSampling() {
  SamplingPlan plan;
  plan.mode = SimMode::kSampled;
  plan.detailed_window = SimTime::Days(14);
  plan.sample_period = SimTime::Days(140);
  plan.min_windows = 4;
  plan.ci_target = 0.05;
  return plan;
}

CenturyConfig QuickCentury() {
  CenturyConfig cfg;
  cfg.seed = 5;
  cfg.fleet_size = 400;
  cfg.horizon = SimTime::Years(100);
  cfg.batch.zone_count = 8;
  cfg.batch.cycle_period = SimTime::Years(6);
  return cfg;
}

// A smaller century for the many-run invariance/snapshot tests.
CenturyConfig SmallCentury() {
  CenturyConfig cfg;
  cfg.seed = 11;
  cfg.fleet_size = 200;
  cfg.horizon = SimTime::Years(30);
  cfg.batch.zone_count = 4;
  cfg.batch.cycle_period = SimTime::Years(6);
  return cfg;
}

// SmallCentury with proactive refresh: units still working at 10 years are
// retired at their zone's next visit, so the walk runs refresh entries.
CenturyConfig SmallCenturyWithRefresh() {
  CenturyConfig cfg = SmallCentury();
  cfg.proactive_refresh_age = SimTime::Years(10);
  return cfg;
}

// Above one walk block: 140,000 sites walk as blocks of 65,536, 65,536 and
// 8,928 sites. Yearly rounds keep a fully detailed run of it cheap.
CenturyConfig BlocksCentury() {
  CenturyConfig cfg;
  cfg.seed = 20260806;
  cfg.fleet_size = 140000;
  cfg.horizon = SimTime::Years(30);
  cfg.batch.zone_count = 16;
  cfg.batch.cycle_period = SimTime::Years(1);
  cfg.proactive_refresh_age = SimTime::Years(15);
  cfg.life_improvement_per_decade = 1.05;
  return cfg;
}

// Zone visits on a grid of whole days, with no jitter: 4 zones every 80
// days, so zone z of cycle c is visited on day 80c + 20z.
CenturyConfig VisitGridCentury() {
  CenturyConfig cfg;
  cfg.seed = 11;
  cfg.fleet_size = 300;
  cfg.horizon = SimTime::Days(100);
  cfg.batch.zone_count = 4;
  cfg.batch.cycle_period = SimTime::Days(80);
  cfg.batch.visit_jitter = SimTime();
  return cfg;
}

// Windows of 10 days every `period` days, which never converge early.
SamplingPlan VisitGridSampling(SimTime period) {
  SamplingPlan plan;
  plan.mode = SimMode::kSampled;
  plan.detailed_window = SimTime::Days(10);
  plan.sample_period = period;
  plan.min_windows = 100;
  plan.ci_target = 1e-9;
  return plan;
}

// The (time, zone) of every `category` record `recorder` holds, oldest
// first.
std::vector<std::pair<SimTime, uint64_t>> Recorded(const FlightRecorder& recorder,
                                                   std::string_view category) {
  std::vector<std::pair<SimTime, uint64_t>> out;
  for (const FlightRecorder::Entry& e : recorder.Snapshot()) {
    if (e.category != nullptr && category == e.category) {
      out.emplace_back(e.sim_at, e.arg);
    }
  }
  return out;
}

std::string Describe(const CenturyConfig& cfg) {
  return std::to_string(cfg.fleet_size) + " sites, " +
         (cfg.proactive_refresh_age.micros() > 0 ? "proactive refresh" : "no refresh");
}

// --- Century: sampled engine ------------------------------------------------

TEST(CenturySampledTest, DefaultPlanIsOffAndRoutesSerial) {
  CenturyConfig cfg = QuickCentury();
  EXPECT_FALSE(cfg.sampling.enabled());
  const CenturyReport report = RunCenturyScenario(cfg);
  EXPECT_FALSE(report.sampled);
  EXPECT_EQ(report.windows_measured, 0u);
  EXPECT_EQ(report.sim_skipped_us, 0);
  EXPECT_TRUE(report.metric_cis.empty());
}

TEST(CenturySampledTest, ReportsCisAndSkipsMostOfTheHorizon) {
  CenturyConfig cfg = QuickCentury();
  cfg.sampling = QuickSampling();
  const CenturyReport report = RunCenturyScenario(cfg);

  EXPECT_TRUE(report.sampled);
  EXPECT_GE(report.windows_measured, cfg.sampling.min_windows);
  EXPECT_GT(report.sim_skipped_us, 0);
  EXPECT_LT(report.sim_skipped_us, cfg.horizon.micros());
  ASSERT_EQ(report.metric_cis.size(), 3u);
  EXPECT_EQ(report.metric_cis[0].name, "availability");
  EXPECT_EQ(report.metric_cis[1].name, "failures_per_device_year");
  EXPECT_EQ(report.metric_cis[2].name, "replacements_per_device_year");
  for (const MetricCi& ci : report.metric_cis) {
    EXPECT_EQ(ci.windows, report.windows_measured);
    EXPECT_GE(ci.ci_half_width, 0.0);
  }

  // The paper metrics still come out of the full (windows + walk)
  // trajectory, not just the measured windows.
  EXPECT_GT(report.mean_availability, 0.8);
  EXPECT_LE(report.mean_availability, 1.0);
  EXPECT_GT(report.total_failures, 400u);
  EXPECT_GT(report.total_replacements, 300u);
  EXPECT_GE(report.units_deployed, 400u);
  EXPECT_GE(report.max_unit_generations, 3.0);
  EXPECT_EQ(report.yearly_availability.size(), 100u);
}

TEST(CenturySampledTest, AgreesWithSerialEngineInDistribution) {
  CenturyConfig cfg = QuickCentury();
  const CenturyReport serial = RunCenturyScenario(cfg);
  cfg.sampling = QuickSampling();
  const CenturyReport sampled = RunCenturyScenario(cfg);

  // Same per-site RNG keys, life draws via the survival table instead of
  // the component sampler: agreement is distributional, a few percent at
  // this fleet size.
  EXPECT_NEAR(sampled.mean_availability, serial.mean_availability, 0.05);
  const double serial_failures = static_cast<double>(serial.total_failures);
  const double sampled_failures = static_cast<double>(sampled.total_failures);
  EXPECT_LT(std::fabs(sampled_failures - serial_failures) / serial_failures, 0.25);
}

TEST(CenturySampledTest, TrajectoryInvariantUnderWindowPlacement) {
  // Three engines over the same config: generously spaced windows, densely
  // spaced windows, and back-to-back windows (sample_period == window, so
  // every fast-forward is zero-length). Per-entity RNG keying promises the
  // exact same trajectory from all three. The back-to-back run never
  // walks, so it is the reference for the two that do.
  for (const CenturyConfig& base : {SmallCentury(), SmallCenturyWithRefresh(), BlocksCentury()}) {
    SCOPED_TRACE(Describe(base));
    CenturyConfig a = base;
    a.sampling = QuickSampling();
    a.sampling.detailed_window = SimTime::Days(7);
    a.sampling.sample_period = SimTime::Days(170);

    CenturyConfig b = base;
    b.sampling = QuickSampling();
    b.sampling.detailed_window = SimTime::Days(45);
    b.sampling.sample_period = SimTime::Days(90);

    CenturyConfig c = base;
    c.sampling = QuickSampling();
    c.sampling.detailed_window = SimTime::Days(140);
    c.sampling.sample_period = SimTime::Days(140);  // Zero-length fast-forwards.

    const CenturyReport ra = RunCenturyScenario(a);
    const CenturyReport rb = RunCenturyScenario(b);
    const CenturyReport rc = RunCenturyScenario(c);

    for (const CenturyReport* walked : {&ra, &rb}) {
      EXPECT_EQ(walked->total_failures, rc.total_failures);
      EXPECT_EQ(walked->total_replacements, rc.total_replacements);
      EXPECT_EQ(walked->proactive_replacements, rc.proactive_replacements);
      EXPECT_EQ(walked->units_deployed, rc.units_deployed);
      EXPECT_EQ(walked->max_unit_generations, rc.max_unit_generations);
      // The integral is exact integer site-microseconds, so the walk's
      // summation order cannot move it.
      EXPECT_EQ(walked->mean_availability, rc.mean_availability);
      EXPECT_EQ(walked->yearly_availability, rc.yearly_availability);
    }
    if (base.proactive_refresh_age.micros() > 0) {
      EXPECT_GT(rc.proactive_replacements, 0u);
    }

    // The zero-skip engine really did run everything detailed.
    EXPECT_EQ(rc.sim_skipped_us, 0);
    EXPECT_GT(ra.sim_skipped_us, rb.sim_skipped_us);
  }
}

// The walk starts workers only above one block, and never more than the
// blocks beside the caller or the spare cores.
TEST(CenturySampledTest, WalkStartsWorkersOnlyAboveOneBlock) {
  CenturyConfig one_block = BlocksCentury();
  one_block.fleet_size = 50000;
  one_block.sampling = QuickSampling();
  uint64_t started = ThreadPool::WorkersStarted();
  RunCenturyScenario(one_block);
  EXPECT_EQ(ThreadPool::WorkersStarted(), started);

  CenturyConfig blocks = BlocksCentury();
  blocks.sampling = QuickSampling();
  started = ThreadPool::WorkersStarted();
  RunCenturyScenario(blocks);
  EXPECT_EQ(ThreadPool::WorkersStarted() - started,
            std::min<uint64_t>(2, ThreadPool::DefaultThreadCount() - 1));
}

TEST(CenturySampledTest, DeterministicAcrossRuns) {
  CenturyConfig cfg = SmallCentury();
  cfg.sampling = QuickSampling();
  const CenturyReport first = RunCenturyScenario(cfg);
  const CenturyReport second = RunCenturyScenario(cfg);
  EXPECT_EQ(first.total_failures, second.total_failures);
  EXPECT_EQ(first.total_replacements, second.total_replacements);
  EXPECT_EQ(first.units_deployed, second.units_deployed);
  EXPECT_EQ(first.windows_measured, second.windows_measured);
  EXPECT_EQ(first.mean_availability, second.mean_availability);
}

// Fast-forward == detailed in expectation, across 32 seeds: the sampled
// engine's failure/replacement process must be statistically the same
// process the serial engine simulates event by event.
TEST(CenturySampledTest, ExpectationParityAcrossSeeds) {
  CenturyConfig base;
  base.fleet_size = 100;
  base.horizon = SimTime::Years(30);
  base.batch.zone_count = 4;
  base.batch.cycle_period = SimTime::Years(6);

  double serial_failures = 0.0, sampled_failures = 0.0;
  double serial_avail = 0.0, sampled_avail = 0.0;
  constexpr int kSeeds = 32;
  for (int s = 0; s < kSeeds; ++s) {
    CenturyConfig cfg = base;
    cfg.seed = 1000 + static_cast<uint64_t>(s);
    const CenturyReport serial = RunCenturyScenario(cfg);
    cfg.sampling = QuickSampling();
    const CenturyReport sampled = RunCenturyScenario(cfg);
    serial_failures += static_cast<double>(serial.total_failures);
    sampled_failures += static_cast<double>(sampled.total_failures);
    serial_avail += serial.mean_availability;
    sampled_avail += sampled.mean_availability;
  }
  serial_failures /= kSeeds;
  sampled_failures /= kSeeds;
  serial_avail /= kSeeds;
  sampled_avail /= kSeeds;

  EXPECT_GT(serial_failures, 0.0);
  EXPECT_LT(std::fabs(sampled_failures - serial_failures) / serial_failures, 0.05)
      << "serial " << serial_failures << " sampled " << sampled_failures;
  EXPECT_NEAR(sampled_avail, serial_avail, 0.02)
      << "serial " << serial_avail << " sampled " << sampled_avail;
}

// --- Century: snapshots across engines --------------------------------------

TEST(CenturySampledTest, SampledCheckpointRestoresIntoSampled) {
  for (const CenturyConfig& base : {SmallCentury(), SmallCenturyWithRefresh(), BlocksCentury()}) {
    SCOPED_TRACE(Describe(base));
    ScratchDir dir("sampled_ckpt_sampled");
    CenturyConfig save_cfg = base;
    save_cfg.sampling = QuickSampling();
    save_cfg.snapshot.checkpoint_every = SimTime::Years(10);
    save_cfg.snapshot.checkpoint_dir = dir.path();
    const CenturyReport saved = RunCenturyScenario(save_cfg);
    EXPECT_GE(saved.checkpoints_written, 1u);
    ASSERT_FALSE(saved.last_checkpoint_path.empty());

    // Writing checkpoints is passive: same trajectory as the plain run.
    CenturyConfig plain_cfg = base;
    plain_cfg.sampling = QuickSampling();
    const CenturyReport plain = RunCenturyScenario(plain_cfg);
    EXPECT_EQ(saved.total_failures, plain.total_failures);
    EXPECT_EQ(saved.total_replacements, plain.total_replacements);
    EXPECT_EQ(saved.proactive_replacements, plain.proactive_replacements);
    EXPECT_EQ(saved.mean_availability, plain.mean_availability);
    EXPECT_EQ(saved.yearly_availability, plain.yearly_availability);

    // Restore into the sampled engine: the continuation re-derives every
    // per-entity stream and rebuilds each site's pending calendar entry
    // (refreshes included), so full-run totals match the straight run
    // exactly. The open intervals' prefixes, backed out at the barrier with
    // weight -1 and closed whole later, cancel exactly.
    CenturyConfig resume_cfg = base;
    resume_cfg.sampling = QuickSampling();
    resume_cfg.snapshot.resume_from = saved.last_checkpoint_path;
    const CenturyReport restored = RunCenturyScenario(resume_cfg);
    EXPECT_GT(restored.restore_seconds, 0.0);
    EXPECT_EQ(restored.total_failures, plain.total_failures);
    EXPECT_EQ(restored.total_replacements, plain.total_replacements);
    EXPECT_EQ(restored.proactive_replacements, plain.proactive_replacements);
    EXPECT_EQ(restored.units_deployed, plain.units_deployed);
    EXPECT_EQ(restored.mean_availability, plain.mean_availability);
    EXPECT_EQ(restored.yearly_availability, plain.yearly_availability);
  }
}

TEST(CenturySampledTest, SampledCheckpointRestoresIntoSerial) {
  // The acceptance contract: a checkpoint cut at a detailed-window barrier
  // restores into EITHER mode. Sampled -> serial continues with the serial
  // event loop from the barrier; draws differ past the barrier (different
  // samplers), so this pins "completes with sane metrics", not parity.
  // BlocksCentury's checkpoint is gathered from three walk blocks.
  for (const CenturyConfig& base : {SmallCentury(), BlocksCentury()}) {
    SCOPED_TRACE(Describe(base));
    ScratchDir dir("sampled_ckpt_serial");
    CenturyConfig save_cfg = base;
    save_cfg.sampling = QuickSampling();
    save_cfg.snapshot.checkpoint_every = SimTime::Years(10);
    save_cfg.snapshot.checkpoint_dir = dir.path();
    const CenturyReport saved = RunCenturyScenario(save_cfg);
    ASSERT_FALSE(saved.last_checkpoint_path.empty());

    CenturyConfig resume_cfg = base;  // sampling off: serial engine.
    resume_cfg.snapshot.resume_from = saved.last_checkpoint_path;
    const CenturyReport restored = RunCenturyScenario(resume_cfg);
    EXPECT_FALSE(restored.sampled);
    EXPECT_GT(restored.restore_seconds, 0.0);
    EXPECT_GT(restored.mean_availability, 0.5);
    EXPECT_LE(restored.mean_availability, 1.0);
    EXPECT_GT(restored.total_failures, 100u);
    EXPECT_GT(restored.total_replacements, 50u);
    EXPECT_EQ(restored.yearly_availability.size(), 30u);
  }
}

TEST(CenturySampledTest, SerialCheckpointRestoresIntoSampled) {
  // BlocksCentury's checkpoint is scattered to three walk blocks.
  for (const CenturyConfig& base : {SmallCentury(), BlocksCentury()}) {
    SCOPED_TRACE(Describe(base));
    ScratchDir dir("serial_ckpt_sampled");
    CenturyConfig save_cfg = base;
    save_cfg.snapshot.checkpoint_every = SimTime::Years(10);
    save_cfg.snapshot.checkpoint_dir = dir.path();
    const CenturyReport saved = RunCenturyScenario(save_cfg);
    ASSERT_FALSE(saved.last_checkpoint_path.empty());

    CenturyConfig resume_cfg = base;
    resume_cfg.sampling = QuickSampling();
    resume_cfg.snapshot.resume_from = saved.last_checkpoint_path;
    const CenturyReport restored = RunCenturyScenario(resume_cfg);
    EXPECT_TRUE(restored.sampled);
    EXPECT_GT(restored.restore_seconds, 0.0);
    EXPECT_GT(restored.mean_availability, 0.5);
    EXPECT_LE(restored.mean_availability, 1.0);
    EXPECT_GT(restored.total_failures, saved.total_failures / 4);
    EXPECT_EQ(restored.yearly_availability.size(), 30u);
  }
}

// A checkpoint cut on a zone visit's microsecond. A sampled window stops
// short of its barrier, so a sampled file leaves that visit pending, and
// the detailed engine resumed from it runs the visit at the barrier:
// dropping it would leave the zone's dead units dark for a whole cycle.
TEST(CenturySampledTest, SampledCheckpointOnAVisitLeavesTheVisitToTheSerialEngine) {
  ScratchDir dir("sampled_ckpt_on_visit");
  CenturyConfig save_cfg = VisitGridCentury();
  // Windows [0, 10) and [50, 60) days; the first barrier past day 55 is
  // day 60, zone 3's visit.
  save_cfg.sampling = VisitGridSampling(SimTime::Days(50));
  save_cfg.snapshot.checkpoint_every = SimTime::Days(55);
  save_cfg.snapshot.checkpoint_dir = dir.path();
  const CenturyReport saved = RunCenturyScenario(save_cfg);
  ASSERT_EQ(saved.checkpoints_written, 1u);

  FlightRecorder recorder;
  CenturyConfig resume_cfg = VisitGridCentury();
  resume_cfg.snapshot.resume_from = saved.last_checkpoint_path;
  resume_cfg.control.recorder = &recorder;
  const CenturyReport restored = RunCenturyScenario(resume_cfg);
  EXPECT_FALSE(restored.sampled);
  EXPECT_GT(restored.restore_seconds, 0.0);
  EXPECT_EQ(Recorded(recorder, kCenturyVisit),
            (std::vector<std::pair<SimTime, uint64_t>>{
                {SimTime::Days(60), 3}, {SimTime::Days(80), 0}, {SimTime::Days(100), 1}}));
}

// The detailed engine runs the visits at its barrier before it cuts the
// checkpoint, so the sampled engine resumed from that file does not run
// one again: its first window, [60, 70) days, records none, and its
// second, [80, 90), records zone 0's.
TEST(CenturySampledTest, SerialCheckpointOnAVisitIsNotRepeatedBySampled) {
  ScratchDir dir("serial_ckpt_on_visit");
  CenturyConfig save_cfg = VisitGridCentury();
  save_cfg.snapshot.checkpoint_every = SimTime::Days(60);
  save_cfg.snapshot.checkpoint_dir = dir.path();
  const CenturyReport saved = RunCenturyScenario(save_cfg);
  ASSERT_EQ(saved.checkpoints_written, 1u);

  FlightRecorder recorder;
  CenturyConfig resume_cfg = VisitGridCentury();
  resume_cfg.sampling = VisitGridSampling(SimTime::Days(20));
  resume_cfg.snapshot.resume_from = saved.last_checkpoint_path;
  resume_cfg.control.recorder = &recorder;
  const CenturyReport restored = RunCenturyScenario(resume_cfg);
  EXPECT_TRUE(restored.sampled);
  EXPECT_GT(restored.restore_seconds, 0.0);
  EXPECT_EQ(Recorded(recorder, kCenturyVisit),
            (std::vector<std::pair<SimTime, uint64_t>>{{SimTime::Days(80), 0}}));
}

// --- District: sampled engine ------------------------------------------------

DistrictConfig QuickDistrict() {
  DistrictConfig cfg;
  cfg.seed = 4;
  cfg.device_count = 400;
  cfg.area_km2 = 4.0;
  cfg.zone_grid = 2;
  cfg.horizon = SimTime::Years(20);
  cfg.batch_cycle = SimTime::Years(6);
  return cfg;
}

TEST(DistrictSampledTest, AgreesWithSerialEngineInDistribution) {
  DistrictConfig cfg = QuickDistrict();
  const DistrictReport serial = RunDistrictScenario(cfg);
  cfg.sampling = QuickSampling();
  const DistrictReport sampled = RunDistrictScenario(cfg);

  EXPECT_TRUE(sampled.sampled);
  EXPECT_GE(sampled.windows_measured, cfg.sampling.min_windows);
  EXPECT_GT(sampled.sim_skipped_us, 0);
  ASSERT_EQ(sampled.metric_cis.size(), 3u);
  EXPECT_EQ(sampled.metric_cis[0].name, "service_availability");

  // Same geometry (digest-compatible construction), per-entity RNG keys:
  // distribution-level agreement, like the sharded engine.
  EXPECT_EQ(sampled.gateway_count, serial.gateway_count);
  EXPECT_DOUBLE_EQ(sampled.initial_coverage, serial.initial_coverage);
  EXPECT_NEAR(sampled.mean_service_availability, serial.mean_service_availability, 0.08);
  EXPECT_NEAR(sampled.mean_device_availability, serial.mean_device_availability, 0.08);
  const double serial_failures = static_cast<double>(serial.device_failures);
  EXPECT_GT(serial_failures, 0.0);
  EXPECT_LT(std::fabs(static_cast<double>(sampled.device_failures) - serial_failures) /
                serial_failures,
            0.3);
  EXPECT_GT(sampled.gateway_failures, 0u);
  EXPECT_GE(sampled.gateway_repairs + 1, sampled.gateway_failures);
}

TEST(DistrictSampledTest, TrajectoryInvariantUnderWindowPlacement) {
  DistrictConfig a = QuickDistrict();
  a.sampling = QuickSampling();
  a.sampling.detailed_window = SimTime::Days(7);
  a.sampling.sample_period = SimTime::Days(170);

  DistrictConfig b = QuickDistrict();
  b.sampling = QuickSampling();
  b.sampling.detailed_window = SimTime::Days(60);
  b.sampling.sample_period = SimTime::Days(60);  // All fast-forwards zero-length.

  const DistrictReport ra = RunDistrictScenario(a);
  const DistrictReport rb = RunDistrictScenario(b);

  EXPECT_EQ(ra.device_failures, rb.device_failures);
  EXPECT_EQ(ra.device_replacements, rb.device_replacements);
  EXPECT_EQ(ra.gateway_failures, rb.gateway_failures);
  EXPECT_EQ(ra.gateway_repairs, rb.gateway_repairs);
  // Exact integer integrals: the same trajectory gives the same bits.
  EXPECT_EQ(ra.mean_service_availability, rb.mean_service_availability);
  EXPECT_EQ(ra.mean_device_availability, rb.mean_device_availability);
  EXPECT_EQ(ra.yearly_service, rb.yearly_service);
  EXPECT_EQ(rb.sim_skipped_us, 0);
  EXPECT_GT(ra.sim_skipped_us, 0);
}

TEST(DistrictSampledTest, SerialCheckpointRestoresIntoSampled) {
  ScratchDir dir("district_serial_ckpt_sampled");
  DistrictConfig save_cfg = QuickDistrict();
  save_cfg.snapshot.checkpoint_every = SimTime::Years(8);
  save_cfg.snapshot.checkpoint_dir = dir.path();
  const DistrictReport saved = RunDistrictScenario(save_cfg);
  ASSERT_FALSE(saved.last_checkpoint_path.empty());

  DistrictConfig resume_cfg = QuickDistrict();
  resume_cfg.sampling = QuickSampling();
  resume_cfg.snapshot.resume_from = saved.last_checkpoint_path;
  const DistrictReport restored = RunDistrictScenario(resume_cfg);
  EXPECT_TRUE(restored.sampled);
  EXPECT_GT(restored.restore_seconds, 0.0);
  EXPECT_GT(restored.mean_service_availability, 0.3);
  EXPECT_LE(restored.mean_service_availability, 1.0);
  EXPECT_GT(restored.device_failures, 0u);
  EXPECT_EQ(restored.yearly_service.size(), 20u);
}

// A serial `district` checkpoint cut on a zone visit's microsecond: the
// serial run made that visit, so the sampled engine resumed from the file
// makes every later visit, in windows and walks alike, and not that one.
TEST(DistrictSampledTest, SerialCheckpointOnAVisitIsNotRepeatedBySampled) {
  ScratchDir dir("district_serial_ckpt_on_visit");
  const DistrictConfig cfg = QuickDistrict();
  std::vector<BatchVisit> visits =
      BatchVisits(Simulation(cfg.seed), DistrictBatches(cfg), cfg.horizon);
  std::stable_sort(visits.begin(), visits.end(),
                   [](const BatchVisit& a, const BatchVisit& b) { return a.at < b.at; });
  // The first visit past half the horizon: the one checkpoint of a run
  // whose period is its time.
  const auto barrier_visit = std::find_if(visits.begin(), visits.end(), [&](const BatchVisit& v) {
    return v.at > cfg.horizon * 0.5;
  });
  ASSERT_NE(barrier_visit, visits.end());
  const SimTime barrier = barrier_visit->at;

  DistrictConfig save_cfg = cfg;
  save_cfg.snapshot.checkpoint_every = barrier;
  save_cfg.snapshot.checkpoint_dir = dir.path();
  const DistrictReport saved = RunDistrictScenario(save_cfg);
  ASSERT_EQ(saved.checkpoints_written, 1u);

  FlightRecorder recorder;
  DistrictConfig resume_cfg = cfg;
  resume_cfg.sampling = QuickSampling();
  resume_cfg.snapshot.resume_from = saved.last_checkpoint_path;
  resume_cfg.control.recorder = &recorder;
  const DistrictReport restored = RunDistrictScenario(resume_cfg);
  EXPECT_TRUE(restored.sampled);
  EXPECT_GT(restored.restore_seconds, 0.0);
  std::vector<std::pair<SimTime, uint64_t>> expected;
  for (auto it = barrier_visit + 1; it != visits.end(); ++it) {
    expected.emplace_back(it->at, it->zone);
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Recorded(recorder, kDistrictVisit), expected);
}

// --- Validation --------------------------------------------------------------

TEST(SampledValidateTest, SamplingAndShardingAreMutuallyExclusive) {
  DistrictConfig district = QuickDistrict();
  district.sampling = QuickSampling();
  district.shard.shards = 2;
  EXPECT_FALSE(district.Validate().empty());
}

TEST(SampledValidateTest, DistrictSampledRefusesCheckpointWriting) {
  DistrictConfig cfg = QuickDistrict();
  cfg.sampling = QuickSampling();
  cfg.snapshot.checkpoint_every = SimTime::Years(5);
  cfg.snapshot.checkpoint_dir = "/tmp/never";
  EXPECT_FALSE(cfg.Validate().empty());
  // Restore-only plans are fine.
  cfg.snapshot.checkpoint_every = SimTime();
  cfg.snapshot.checkpoint_dir.clear();
  cfg.snapshot.resume_from = "whatever.snap";
  EXPECT_TRUE(cfg.Validate().empty());
}

TEST(SampledValidateTest, BadPlanDiagnosticsPropagate) {
  CenturyConfig cfg = QuickCentury();
  cfg.sampling.mode = SimMode::kSampled;
  cfg.sampling.ci_target = -0.5;
  EXPECT_FALSE(cfg.Validate().empty());
}

}  // namespace
}  // namespace centsim
