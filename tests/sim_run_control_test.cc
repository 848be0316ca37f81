#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/sim/ensemble.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/profiler.h"
#include "src/sim/run_progress.h"
#include "src/sim/scheduler.h"
#include "src/telemetry/json.h"
#include "src/telemetry/run_status.h"

#if defined(__SANITIZE_THREAD__)
#define CENTSIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CENTSIM_TSAN 1
#endif
#endif

namespace centsim {
namespace {

namespace fs = std::filesystem;

// --- Scheduler::Snapshot introspection --------------------------------------

TEST(SchedulerSnapshotTest, EmptyQueue) {
  Scheduler sched;
  const SchedulerSnapshot snap = sched.Snapshot();
  EXPECT_TRUE(snap.queue_empty);
  EXPECT_EQ(snap.pending, 0u);
  EXPECT_EQ(snap.heap_size, 0u);
  EXPECT_EQ(snap.staged, 0u);
  EXPECT_EQ(snap.next_event_us, snap.now_us);
}

TEST(SchedulerSnapshotTest, AccountsForEveryQueuedEntry) {
  Scheduler sched;
  // A spread of near and far events: wherever the ladder puts them, the
  // snapshot must account for every entry and report the earliest time.
  for (int i = 0; i < 50; ++i) {
    sched.ScheduleAt(SimTime::Micros(10 + i), [] {});
  }
  for (int i = 0; i < 50; ++i) {
    sched.ScheduleAt(SimTime::Hours(1 + i), [] {});
  }
  sched.ScheduleAt(SimTime::Years(30), [] {});

  const SchedulerSnapshot snap = sched.Snapshot();
  EXPECT_FALSE(snap.queue_empty);
  EXPECT_EQ(snap.pending, 101u);
  EXPECT_EQ(snap.heap_size + snap.staged + snap.run_remaining, 101u);
  EXPECT_EQ(snap.next_event_us, 10);

  // Rung occupancy + far stage must add up to the staged total.
  size_t rung_entries = 0;
  for (const SchedulerSnapshot::RungInfo& rung : snap.rungs) {
    EXPECT_GT(rung.width_us, 0);
    EXPECT_LE(rung.next_bucket, rung.bucket_count);
    rung_entries += rung.entries;
  }
  EXPECT_EQ(rung_entries + snap.far_count, snap.staged);
}

TEST(SchedulerSnapshotTest, CancelledEventsStayInHeapButNotPending) {
  Scheduler sched;
  sched.ScheduleAt(SimTime::Micros(5), [] {});
  const EventId doomed = sched.ScheduleAt(SimTime::Micros(6), [] {});
  sched.ScheduleAt(SimTime::Micros(7), [] {});
  ASSERT_TRUE(sched.Cancel(doomed));

  const SchedulerSnapshot snap = sched.Snapshot();
  EXPECT_EQ(snap.pending, 2u);  // Live events only.
  EXPECT_EQ(snap.heap_size + snap.staged, 3u);  // Stale entry still queued.
  EXPECT_FALSE(snap.queue_empty);
}

TEST(SchedulerSnapshotTest, DrainedQueueReportsNowAsNextEvent) {
  Scheduler sched;
  sched.ScheduleAt(SimTime::Micros(100), [] {});
  sched.RunUntil(SimTime::Seconds(1));
  const SchedulerSnapshot snap = sched.Snapshot();
  EXPECT_TRUE(snap.queue_empty);
  EXPECT_EQ(snap.executed, 1u);
  EXPECT_EQ(snap.now_us, SimTime::Seconds(1).micros());
  EXPECT_EQ(snap.next_event_us, snap.now_us);
}

// --- Sampled progress / recorder hooks --------------------------------------

// Fast-sampling profiler so small tests hit the piggyback paths often.
SchedulerProfiler::Options FastSampling() {
  SchedulerProfiler::Options options;
  options.time_sample_every = 4;
  options.queue_depth_sample_every = 8;
  return options;
}

TEST(RunControlHooksTest, ProgressCellPublishesOnDepthSamples) {
  Scheduler sched;
  SchedulerProfiler profiler(FastSampling());
  ProgressCell cell;
  RunControlHooks hooks;
  hooks.profiler = &profiler;
  hooks.progress = &cell;
  sched.AttachRunControl(hooks);

  for (int i = 0; i < 500; ++i) {
    sched.ScheduleAt(SimTime::Micros(i), [] {}, "rc.tick");
  }
  sched.RunUntil(SimTime::Seconds(1));
  sched.DetachRunControl(hooks);

  const ProgressCell::View view = cell.Load();
  EXPECT_GT(view.ticks, 10u);  // 500 events / depth-sample-every-8.
  EXPECT_GT(view.sim_us, 0);
  EXPECT_GT(view.executed, 0u);
  EXPECT_LE(view.executed, 500u);
  EXPECT_FALSE(view.done);
  EXPECT_FALSE(view.stalled);
}

// One writer publishes row k as (k, k, k, k, k) while a reader loads: a
// loaded row must be one publish's, never a mix of two, and its tick count
// names that publish. The last row is the done row.
TEST(ProgressCellTest, LoadedRowsNeverMixTwoPublishes) {
  constexpr int64_t kPublishes = 1000000;
  ProgressCell cell;
  std::atomic<bool> reading{false};
  std::atomic<bool> finished{false};
  std::thread writer([&] {
    while (!reading.load()) {
    }
    for (int64_t k = 1; k <= kPublishes; ++k) {
      const auto u = static_cast<uint64_t>(k);
      cell.Publish(k, k, u, u, u);
    }
    cell.MarkDone(kPublishes + 1, kPublishes + 1);
    finished.store(true);
  });
  uint64_t rows = 0;
  uint64_t mixed = 0;
  uint64_t last_ticks = 0;
  reading.store(true);
  while (!finished.load()) {
    const ProgressCell::View v = cell.Load();
    ++rows;
    const auto k = static_cast<uint64_t>(v.sim_us);
    const bool one_row =
        v.done ? v.executed == k && v.pending == 0 && v.queue_entries == 0
               : static_cast<uint64_t>(v.next_event_us) == k && v.executed == k &&
                     v.pending == k && v.queue_entries == k;
    mixed += (one_row && v.ticks == k && v.ticks >= last_ticks) ? 0 : 1;
    last_ticks = v.ticks;
  }
  writer.join();
  EXPECT_GT(rows, 0u);
  EXPECT_EQ(mixed, 0u);
  const ProgressCell::View done = cell.Load();
  EXPECT_TRUE(done.done);
  EXPECT_EQ(done.ticks, static_cast<uint64_t>(kPublishes) + 1);
  EXPECT_EQ(done.next_event_us, kPublishes);
  EXPECT_FALSE(done.stalled);
}

TEST(RunControlHooksTest, FlightRecorderSamplesOnTimedEvents) {
  Scheduler sched;
  SchedulerProfiler profiler(FastSampling());
  FlightRecorder recorder(256);
  RunControlHooks hooks;
  hooks.profiler = &profiler;
  hooks.recorder = &recorder;
  sched.AttachRunControl(hooks);

  for (int i = 0; i < 400; ++i) {
    sched.ScheduleAt(SimTime::Micros(i), [] {}, "rc.sampled");
  }
  sched.RunUntil(SimTime::Seconds(1));
  sched.DetachRunControl(hooks);

  // 400 events, 1-in-4 timed: the ring must have seen roughly a quarter.
  EXPECT_GE(recorder.total_recorded(), 50u);
  EXPECT_LE(recorder.total_recorded(), 400u);
  for (const FlightRecorder::Entry& e : recorder.Snapshot()) {
    EXPECT_STREQ(e.category, "rc.sampled");
  }
}

TEST(RunControlHooksTest, NoProfilerMeansNoSampling) {
  Scheduler sched;
  FlightRecorder recorder(64);
  ProgressCell cell;
  RunControlHooks hooks;  // No profiler: piggyback branches never taken.
  hooks.recorder = &recorder;
  hooks.progress = &cell;
  sched.AttachRunControl(hooks);
  for (int i = 0; i < 300; ++i) {
    sched.ScheduleAt(SimTime::Micros(i), [] {});
  }
  sched.RunUntil(SimTime::Seconds(1));
  sched.DetachRunControl(hooks);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_EQ(cell.Load().ticks, 0u);
}

TEST(RunControlHooksTest, AttachRegistersSchedulerSlotAndDetachClearsIt) {
  Scheduler sched;
  SchedulerSlot slot;
  RunControlHooks hooks;
  hooks.scheduler_slot = &slot;
  sched.AttachRunControl(hooks);

  bool reached = false;
  EXPECT_TRUE(slot.With([&](Scheduler& s) {
    reached = true;
    EXPECT_EQ(&s, &sched);
  }));
  EXPECT_TRUE(reached);

  sched.DetachRunControl(hooks);
  EXPECT_FALSE(slot.With([](Scheduler&) { FAIL() << "slot not cleared"; }));
}

TEST(RunControlHooksTest, DetachStopsRecording) {
  Scheduler sched;
  SchedulerProfiler profiler(FastSampling());
  FlightRecorder recorder(64);
  RunControlHooks hooks;
  hooks.profiler = &profiler;
  hooks.recorder = &recorder;
  sched.AttachRunControl(hooks);
  for (int i = 0; i < 100; ++i) {
    sched.ScheduleAt(SimTime::Micros(i), [] {});
  }
  sched.RunUntil(SimTime::Millis(1));
  sched.DetachRunControl(hooks);
  const uint64_t at_detach = recorder.total_recorded();
  EXPECT_GT(at_detach, 0u);

  // Profiler re-attached alone: events run but the ring stays frozen.
  sched.SetProfiler(&profiler);
  for (int i = 0; i < 100; ++i) {
    sched.ScheduleAfter(SimTime::Micros(i), [] {});
  }
  sched.RunUntil(SimTime::Seconds(1));
  EXPECT_EQ(recorder.total_recorded(), at_detach);
}

// --- SIGUSR1 on-demand status ------------------------------------------------

TEST(StatusSignalTest, Usr1SetsFlagConsumedOnce) {
  InstallStatusSignalHandler();
  (void)ConsumeStatusRequest();  // Drain any stale request.
  EXPECT_FALSE(ConsumeStatusRequest());
  ASSERT_EQ(raise(SIGUSR1), 0);
  EXPECT_TRUE(ConsumeStatusRequest());
  EXPECT_FALSE(ConsumeStatusRequest());
}

// --- Watchdog: synthetic stuck replica through EnsembleRunner ----------------

// Released by the test once the watchdog has dumped the stuck replica.
std::atomic<bool> g_release_wedge{false};

// Minimal experiment following the unified API whose replica can wedge:
// it executes a stream of quick ticks (so progress gets published), then
// one event that spins on g_release_wedge — sim time and executed count
// freeze exactly the way a hung callback would freeze them.
struct StuckExperiment {
  struct Config {
    uint64_t seed = 1;
    SimTime horizon = SimTime::Seconds(1);
    uint32_t fleet_size = 100;  // Exercises the devices-per-replica gauge.
    bool wedge = false;
    RunControlHooks control;
    std::vector<std::string> Validate() const { return {}; }
  };
  struct Report {
    uint64_t events_executed = 0;
  };
  static constexpr const char* Name() { return "stuck-replica-test"; }

  static Report Run(const Config& config) {
    Scheduler sched;
    sched.AttachRunControl(config.control);
    for (int i = 0; i < 2000; ++i) {
      sched.ScheduleAt(SimTime::Micros(i), [] {}, "stuck.tick");
    }
    if (config.wedge) {
      sched.ScheduleAt(SimTime::Micros(5000), [] {
        while (!g_release_wedge.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }, "stuck.wedge");
    }
    Report report;
    sched.RunUntil(config.horizon);
    report.events_executed = sched.executed_count();
    sched.DetachRunControl(config.control);
    return report;
  }
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return content;
}

TEST(WatchdogTest, StalledReplicaIsDumpedAndFlagged) {
  const std::string dir = testing::TempDir() + "watchdog_stall_test";
  fs::remove_all(dir);

  g_release_wedge.store(false, std::memory_order_release);
  StuckExperiment::Config base;
  base.wedge = true;
  EnsembleOptions options;
  options.replicas = 1;
  options.threads = 1;
  options.status_dir = dir;
  options.artifacts_dir = dir;
  options.heartbeat_seconds = 0.05;
  options.stall_deadline_seconds = 0.25;
#if defined(CENTSIM_TSAN)
  // The deep snapshot of a live (spinning) replica is documented
  // best-effort and inherently racy; keep TSan runs clean.
  options.deep_stall_snapshot = false;
#endif

  // The wedge spins until the watchdog has produced the stall dump (with a
  // hard timeout so a watchdog bug fails the test instead of hanging it).
  const std::string flight_dump = dir + "/replica_0_flight.jsonl";
  std::thread releaser([&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!fs::exists(flight_dump) && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    g_release_wedge.store(true, std::memory_order_release);
  });
  const auto result = EnsembleRunner<StuckExperiment>::Run(base, options);
  releaser.join();

  // The watchdog flagged the replica (sticky: it finished afterwards).
  EXPECT_EQ(result.stalled_replicas, 1u);
  ASSERT_EQ(result.manifest.replica_runs.size(), 1u);
  EXPECT_TRUE(result.manifest.replica_runs[0].stalled);
  EXPECT_EQ(result.manifest.StalledReplicaCount(), 1u);
  EXPECT_GT(result.replicas[0].events_executed, 0u);

  // Stall artifacts: flight dump (JSONL, every line parseable) ...
  ASSERT_TRUE(fs::exists(flight_dump));
  {
    std::ifstream in(flight_dump);
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
      std::string error;
      EXPECT_TRUE(JsonLint(line, &error)) << line << ": " << error;
      ++lines;
    }
    EXPECT_GT(lines, 0u);
  }
#if !defined(CENTSIM_TSAN)
  // ... the deep scheduler snapshot ...
  const std::string sched_dump = dir + "/replica_0_sched.json";
  ASSERT_TRUE(fs::exists(sched_dump));
  {
    std::string error;
    const std::string content = ReadAll(sched_dump);
    EXPECT_TRUE(JsonLint(content, &error)) << error;
    EXPECT_NE(content.find("\"pending\""), std::string::npos);
  }
#endif
  // ... and the live status files, including a "stall" heartbeat line.
  ASSERT_TRUE(fs::exists(dir + "/run_status.json"));
  EXPECT_FALSE(fs::exists(dir + "/run_status.json.tmp"));
  {
    std::string error;
    const std::string status = ReadAll(dir + "/run_status.json");
    EXPECT_TRUE(JsonLint(status, &error)) << error;
    EXPECT_NE(status.find("\"stall_kind\": \"replica_stalled\""), std::string::npos);
  }
  EXPECT_NE(ReadAll(dir + "/status.jsonl").find("\"event\":\"stall\""), std::string::npos);

  // The manifest on disk carries the verdict too.
  const std::string manifest = ReadAll(dir + "/ensemble_manifest.json");
  EXPECT_NE(manifest.find("\"stalled_replicas\": 1"), std::string::npos);

  fs::remove_all(dir);
}

TEST(WatchdogTest, HealthyEnsembleHasNoStalls) {
  const std::string dir = testing::TempDir() + "watchdog_healthy_test";
  fs::remove_all(dir);

  StuckExperiment::Config base;
  base.wedge = false;
  EnsembleOptions options;
  options.replicas = 3;
  options.threads = 2;
  options.status_dir = dir;
  options.heartbeat_seconds = 0.02;
  options.stall_deadline_seconds = 30.0;  // Armed, but far beyond the run.

  const auto result = EnsembleRunner<StuckExperiment>::Run(base, options);
  EXPECT_EQ(result.stalled_replicas, 0u);
  EXPECT_EQ(result.manifest.StalledReplicaCount(), 0u);
  for (const auto& run : result.manifest.replica_runs) {
    EXPECT_FALSE(run.stalled);
  }
  EXPECT_EQ(result.status_dir, dir);

  // Stop() always writes a final status even if no heartbeat fired.
  ASSERT_TRUE(fs::exists(dir + "/run_status.json"));
  std::string error;
  const std::string status = ReadAll(dir + "/run_status.json");
  EXPECT_TRUE(JsonLint(status, &error)) << error;
  EXPECT_NE(status.find("\"replicas_done\": 3"), std::string::npos);
  EXPECT_EQ(status.find("\"stall_kind\""), std::string::npos);  // Healthy: omitted.
  EXPECT_NE(ReadAll(dir + "/status.jsonl").find("\"event\":\"final\""), std::string::npos);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace centsim
