// Sharded district determinism tests (ROADMAP item 1): the same city run
// under ANY shard count or worker count must produce bit-identical
// reports — the property that makes "how many cores" a pure
// wall-clock knob. Also pins the sharded snapshot contract: a checkpoint
// written under K shards restores under K' shards and finishes on the
// same digest as an uninterrupted run.
//
// The serial (shards == 0) path's golden digests are pinned separately in
// core_fleet_test.cc (FleetGoldenTest); RunDistrictScenario dispatches
// through the same entry point these tests use, so those pins double as
// the serial-dispatch regression check.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/district.h"
#include "src/sim/run_progress.h"
#include "src/sim/thread_pool.h"
#include "src/sim/time.h"
#include "src/snapshot/snapshot.h"
#include "src/telemetry/run_manifest.h"

namespace centsim {
namespace {

namespace fs = std::filesystem;

// Unique scratch directory per test, removed on teardown.
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

// Hexfloat digest over every result field (perf/checkpoint accounting
// excluded) — the same idiom as the golden parity pins.
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

DistrictConfig SmallDistrict() {
  DistrictConfig cfg;
  cfg.seed = 20260808;
  cfg.device_count = 240;
  cfg.area_km2 = 4.0;
  cfg.zone_grid = 2;
  cfg.horizon = SimTime::Years(6);
  cfg.gateway_range_m = 700.0;
  cfg.batch_cycle = SimTime::Years(2);
  return cfg;
}

// --- District: shard/worker invariance ----------------------------------

TEST(DistrictShardTest, DigestInvariantAcrossShardCounts) {
  DistrictConfig cfg = SmallDistrict();
  cfg.shard.shards = 1;
  const DistrictReport base = RunDistrictScenario(cfg);
  const std::string digest = DistrictDigest(base);
  EXPECT_GT(base.device_failures, 0u);
  EXPECT_GT(base.gateway_failures, 0u);  // Cross-shard traffic is exercised.

  for (const uint32_t shards : {2u, 3u, 4u}) {
    cfg.shard.shards = shards;
    const DistrictReport r = RunDistrictScenario(cfg);
    EXPECT_EQ(DistrictDigest(r), digest) << "shards=" << shards;
    // events_executed is a perf gauge, not a result: every lane executes
    // its own copy of each broadcast gateway transition and zone visit, so
    // the total scales with the lane count while the REPORT stays fixed.
    EXPECT_GE(r.events_executed, base.events_executed) << "shards=" << shards;
  }
}

TEST(DistrictShardTest, DigestInvariantAcrossWorkerCounts) {
  DistrictConfig cfg = SmallDistrict();
  cfg.shard.shards = 3;
  std::string digest;
  for (const uint32_t workers : {0u, 1u, 2u}) {
    cfg.shard.workers = workers;
    const std::string d = DistrictDigest(RunDistrictScenario(cfg));
    if (digest.empty()) {
      digest = d;
    }
    EXPECT_EQ(d, digest) << "workers=" << workers;
  }
}

// With workers = 0, the caller and the spare cores drain the lanes, so 16
// lanes on a smaller host start fewer threads than it has CPUs. The report
// is the one-worker report.
TEST(DistrictShardTest, DefaultWorkersCappedAtTheCpuCount) {
  DistrictConfig cfg = SmallDistrict();
  cfg.shard.shards = 16;
  cfg.shard.workers = 1;
  const std::string one_worker = DistrictDigest(RunDistrictScenario(cfg));
  cfg.shard.workers = 0;
  const uint64_t before = ThreadPool::WorkersStarted();
  const std::string default_workers = DistrictDigest(RunDistrictScenario(cfg));
  EXPECT_LE(ThreadPool::WorkersStarted() - before, ThreadPool::DefaultThreadCount());
  EXPECT_EQ(default_workers, one_worker);
}

// An explicit worker count beyond the lane count is capped at it: each
// drain hands out one lane per claim, so more threads would only idle.
TEST(DistrictShardTest, ExplicitWorkersCappedAtTheLaneCount) {
  DistrictConfig cfg = SmallDistrict();
  cfg.shard.shards = 2;
  cfg.shard.workers = 1;
  const std::string one_worker = DistrictDigest(RunDistrictScenario(cfg));
  cfg.shard.workers = 8;
  const uint64_t before = ThreadPool::WorkersStarted();
  const std::string eight_workers = DistrictDigest(RunDistrictScenario(cfg));
  EXPECT_LE(ThreadPool::WorkersStarted() - before, 2u);
  EXPECT_EQ(eight_workers, one_worker);
}

// --- District: the barrier loop ----------------------------------------
//
// The lanes drain together to a barrier every 90 simulated days and at
// each checkpoint grid point; with every lane quiescent there, the run
// writes the checkpoint and publishes its progress row.

// The checkpoint files in `dir`, by name (zero-padded barriers sort in
// time order).
std::vector<std::string> CheckpointFiles(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint_", 0) == 0) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

// A 100-day grid falls between the 90-day barriers, and six sites leave
// most grid points with no event near them: each point below the horizon
// still gets its checkpoint. A period longer than the horizon writes none.
TEST(DistrictShardTest, CheckpointAtEveryGridPointBelowTheHorizon) {
  ScratchDir dir("shard_checkpoint_grid");
  DistrictConfig cfg = SmallDistrict();
  cfg.device_count = 6;
  cfg.horizon = SimTime::Years(2);
  cfg.shard.shards = 3;
  cfg.snapshot.checkpoint_every = SimTime::Days(100);
  cfg.snapshot.checkpoint_dir = dir.path();
  const DistrictReport report = RunDistrictScenario(cfg);

  std::vector<std::string> expected;
  for (int64_t at = SimTime::Days(100).micros(); at < cfg.horizon.micros();
       at += SimTime::Days(100).micros()) {
    expected.push_back(CheckpointFileName(at));
  }
  ASSERT_EQ(expected.size(), 7u);
  EXPECT_EQ(CheckpointFiles(dir.path()), expected);
  EXPECT_EQ(report.checkpoints_written, 7u);

  ScratchDir none_dir("shard_checkpoint_none");
  cfg.snapshot.checkpoint_every = SimTime::Years(3);
  cfg.snapshot.checkpoint_dir = none_dir.path();
  EXPECT_EQ(RunDistrictScenario(cfg).checkpoints_written, 0u);
  EXPECT_TRUE(CheckpointFiles(none_dir.path()).empty());
}

// A one-day horizon, shorter than the barrier cadence, still drains every
// lane to the horizon: a lane left short of it would integrate its sites
// over less than the day and lower the device availability. An hourly
// batch cycle over 16 zones lands some zone visits inside the day. Each
// lane runs its own copy of every visit and gateway transition and its own
// sites' failures, so the lanes' sum is the failures plus one copy of the
// rest per lane.
TEST(DistrictShardTest, OneDayHorizonEndsEveryLaneAtTheHorizon) {
  DistrictConfig cfg = SmallDistrict();
  cfg.horizon = SimTime::Days(1);
  cfg.zone_grid = 4;
  cfg.batch_cycle = SimTime::Hours(1);
  cfg.shard.shards = 1;
  const DistrictReport one = RunDistrictScenario(cfg);
  cfg.shard.shards = 3;
  ProgressCell cell;
  cfg.control.progress = &cell;
  const DistrictReport three = RunDistrictScenario(cfg);

  EXPECT_EQ(DistrictDigest(three), DistrictDigest(one));
  EXPECT_EQ(three.mean_device_availability, 1.0);
  const uint64_t shared = one.events_executed - one.device_failures;
  EXPECT_GT(shared, 0u);
  EXPECT_EQ(three.events_executed, three.device_failures + 3 * shared);
  const ProgressCell::View row = cell.Load();
  EXPECT_EQ(row.sim_us, cfg.horizon.micros());
  EXPECT_EQ(row.executed, three.events_executed);
}

// With a progress cell, the last row is done at the horizon and counts the
// run's events.
TEST(DistrictShardTest, ProgressRowDoneAtTheHorizon) {
  DistrictConfig cfg = SmallDistrict();
  cfg.shard.shards = 3;
  ProgressCell cell;
  cfg.control.progress = &cell;
  const DistrictReport report = RunDistrictScenario(cfg);
  const ProgressCell::View row = cell.Load();
  EXPECT_TRUE(row.done);
  EXPECT_EQ(row.sim_us, cfg.horizon.micros());
  EXPECT_EQ(row.executed, report.events_executed);
  EXPECT_GT(report.events_executed, report.device_failures);
}

// The row published at each barrier counts the lanes' unit failures,
// which wait in their models' calendars and not on their schedulers, in
// `pending`, and names the earliest pending event in `next_event_us`, as
// the serial run's row does (DistrictTest.ProgressRowCountsPendingFailures).
//
// `pending`: a reader polls the row while the run writes a checkpoint
// every 30 days. A lane's scheduler holds at most one transition per
// gateway and the run's zone visits, so a row above that many per lane
// counts calendar entries. Rows are read without a lock, so one may mix
// two barriers' fields; either barrier's count clears the bound, and a
// mix with the final row's zero is skipped.
//
// `next_event_us`: the done row keeps the horizon barrier's, which names
// the earliest of the lanes' calendar failures: a run to that instant
// (lanes key every draw per entity, so a longer horizon replays the same
// trajectory) has exactly one more unit failure and the same gateway
// counts, and a run to the instant before has none.
TEST(DistrictShardTest, ProgressRowCountsCalendarFailures) {
  ScratchDir dir("shard_progress_rows");
  DistrictConfig cfg = SmallDistrict();
  cfg.shard.shards = 3;
  cfg.snapshot.checkpoint_every = SimTime::Days(30);
  cfg.snapshot.checkpoint_dir = dir.path();
  ProgressCell cell;
  cfg.control.progress = &cell;

  std::atomic<bool> finished{false};
  DistrictReport report;
  std::thread run([&] {
    report = RunDistrictScenario(cfg);
    finished.store(true);
  });
  uint64_t rows_read = 0;
  uint64_t min_pending = UINT64_MAX;
  while (!finished.load()) {
    const ProgressCell::View row = cell.Load();
    if (row.ticks > 0 && !row.done && row.pending != 0) {
      ++rows_read;
      min_pending = std::min(min_pending, row.pending);
    }
  }
  run.join();

  const uint64_t zones = cfg.zone_grid * cfg.zone_grid;
  const uint64_t cycles = cfg.horizon.micros() / cfg.batch_cycle.micros() + 1;
  const uint64_t scheduler_bound = cfg.shard.shards * (report.gateway_count + zones * cycles);
  ASSERT_GT(rows_read, 0u);
  EXPECT_GT(min_pending, scheduler_bound);

  const ProgressCell::View done = cell.Load();
  ASSERT_TRUE(done.done);
  EXPECT_GT(done.next_event_us, cfg.horizon.micros());
  DistrictConfig longer = SmallDistrict();
  longer.shard.shards = 3;
  longer.horizon = SimTime::Micros(done.next_event_us);
  const DistrictReport at_next = RunDistrictScenario(longer);
  EXPECT_EQ(at_next.device_failures, report.device_failures + 1);
  EXPECT_EQ(at_next.gateway_failures, report.gateway_failures);
  EXPECT_EQ(at_next.gateway_repairs, report.gateway_repairs);
  longer.horizon = SimTime::Micros(done.next_event_us - 1);
  EXPECT_EQ(RunDistrictScenario(longer).device_failures, report.device_failures);
}

TEST(DistrictShardTest, ShardCountBeyondDeviceCountClamps) {
  DistrictConfig cfg = SmallDistrict();
  cfg.device_count = 3;
  cfg.horizon = SimTime::Years(2);
  cfg.shard.shards = 1;
  const std::string digest = DistrictDigest(RunDistrictScenario(cfg));
  cfg.shard.shards = 64;  // More lanes than devices: clamped, same result.
  EXPECT_EQ(DistrictDigest(RunDistrictScenario(cfg)), digest);
}

// --- District: sharded snapshot/restore ----------------------------------

TEST(DistrictShardTest, SnapshotUnderKShardsRestoresUnderKPrime) {
  ScratchDir dir("shard_snapshot_k_kprime");

  // Uninterrupted reference run at 2 shards.
  DistrictConfig cfg = SmallDistrict();
  cfg.shard.shards = 2;
  const std::string digest = DistrictDigest(RunDistrictScenario(cfg));

  // Checkpointing run at 2 shards.
  cfg.snapshot.checkpoint_every = SimTime::Years(2);
  cfg.snapshot.checkpoint_dir = dir.path();
  const DistrictReport saved = RunDistrictScenario(cfg);
  EXPECT_EQ(DistrictDigest(saved), digest) << "checkpointing must not perturb results";
  ASSERT_GT(saved.checkpoints_written, 0u);
  ASSERT_FALSE(saved.last_checkpoint_path.empty());

  // Resume the EARLIEST checkpoint (zero-padded names sort numerically)
  // under a DIFFERENT shard count: the snapshot layout is shard-agnostic,
  // so 3 lanes pick up 2 lanes' work.
  std::string earliest;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint_", 0) == 0 &&
        (earliest.empty() || name < fs::path(earliest).filename().string())) {
      earliest = entry.path().string();
    }
  }
  ASSERT_FALSE(earliest.empty());
  DistrictConfig resumed = SmallDistrict();
  resumed.shard.shards = 3;
  resumed.snapshot.checkpoint_dir = dir.path();
  resumed.snapshot.resume_from = earliest;
  const DistrictReport r = RunDistrictScenario(resumed);
  EXPECT_GT(r.restore_seconds, 0.0);
  EXPECT_EQ(DistrictDigest(r), digest);

  // And under shards = 1.
  resumed.shard.shards = 1;
  EXPECT_EQ(DistrictDigest(RunDistrictScenario(resumed)), digest);
}

TEST(DistrictShardTest, ResumeLatestPicksNewestShardCheckpoint) {
  ScratchDir dir("shard_snapshot_latest");
  DistrictConfig cfg = SmallDistrict();
  cfg.shard.shards = 2;
  const std::string digest = DistrictDigest(RunDistrictScenario(cfg));

  cfg.snapshot.checkpoint_every = SimTime::Years(2);
  cfg.snapshot.checkpoint_dir = dir.path();
  RunDistrictScenario(cfg);

  DistrictConfig resumed = SmallDistrict();
  resumed.shard.shards = 4;
  resumed.snapshot.checkpoint_dir = dir.path();
  resumed.snapshot.resume_latest = true;
  const DistrictReport r = RunDistrictScenario(resumed);
  EXPECT_GT(r.restore_seconds, 0.0);
  EXPECT_EQ(DistrictDigest(r), digest);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(DistrictShardTest, ResumedRunCheckpointsOnlyAfterItsRestorePoint) {
  ScratchDir straight_dir("shard_resume_straight");
  ScratchDir resumed_dir("shard_resume_resumed");
  DistrictConfig cfg = SmallDistrict();
  cfg.shard.shards = 2;
  cfg.snapshot.checkpoint_every = SimTime::Years(1);
  cfg.snapshot.checkpoint_dir = straight_dir.path();
  const std::string digest = DistrictDigest(RunDistrictScenario(cfg));

  // Resume the year-3 checkpoint with the same cadence and shard count.
  const int64_t restore_us = SimTime::Years(3).micros();
  DistrictConfig resumed = cfg;
  resumed.snapshot.checkpoint_dir = resumed_dir.path();
  resumed.snapshot.resume_from = straight_dir.path() + "/" + CheckpointFileName(restore_us);
  EXPECT_EQ(DistrictDigest(RunDistrictScenario(resumed)), digest);

  std::vector<std::string> written;
  for (const auto& entry : fs::directory_iterator(resumed_dir.path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint_", 0) == 0) {
      written.push_back(name);
    }
  }
  std::sort(written.begin(), written.end());
  const std::vector<std::string> expected = {CheckpointFileName(SimTime::Years(4).micros()),
                                             CheckpointFileName(SimTime::Years(5).micros())};
  EXPECT_EQ(written, expected);
  for (const std::string& name : written) {
    EXPECT_EQ(FileBytes(resumed_dir.path() + "/" + name),
              FileBytes(straight_dir.path() + "/" + name))
        << name;
  }
}

}  // namespace
}  // namespace centsim
