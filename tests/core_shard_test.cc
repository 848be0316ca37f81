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
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/district.h"
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

// With workers = 0, a run starts one worker per lane only up to the CPUs
// the process may run on, so 16 lanes on a smaller host start no more
// threads than it has CPUs. The report is the one-worker report.
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
// barrier hands out one task per lane, so more workers would only idle.
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
