#include "src/telemetry/run_status.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/metrics.h"
#include "src/sim/run_progress.h"
#include "src/sim/scheduler.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics_jsonl.h"
#include "src/telemetry/run_manifest.h"

namespace centsim {
namespace {

namespace fs = std::filesystem;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return content;
}

RunStatus SampleStatus() {
  RunStatus s;
  s.run_name = "unit \"quoted\" run";  // Escaping must hold up.
  s.experiment = "district";
  s.wall_seconds = 12.5;
  s.horizon_us = 1000000;
  s.sim_us = 250000;
  s.pct_of_horizon = 25.0;
  s.events_executed = 123456;
  s.events_per_sec = 9876.5;
  s.device_years_per_sec = 3.25;
  s.eta_seconds = 37.5;
  s.queue_entries = 42;
  s.rss_bytes = 1 << 20;
  s.replicas_done = 1;
  s.replicas_stalled = 1;
  ReplicaStatusRow row;
  row.index = 0;
  row.seed = 99;
  row.sim_us = 250000;
  row.executed = 123456;
  row.pct_of_horizon = 25.0;
  row.stalled = true;
  s.replicas.push_back(row);
  return s;
}

TEST(RunStatusJsonTest, ReplicaRowsCarrySamplingMode) {
  // Sampled-engine telemetry (ROADMAP item 2): every replica row names its
  // current time-advance level and the span fast-forward has skipped.
  RunStatus s = SampleStatus();
  std::string json = s.ToJson();
  EXPECT_NE(json.find("\"mode\": \"detailed\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_skipped_us\": 0"), std::string::npos);

  s.replicas[0].mode = 1;
  s.replicas[0].sim_skipped_us = 123456789;
  json = s.ToJson();
  EXPECT_NE(json.find("\"mode\": \"fast_forward\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_skipped_us\": 123456789"), std::string::npos);
  std::string error;
  EXPECT_TRUE(JsonLint(json, &error)) << error;
}

TEST(RunStatusJsonTest, ToJsonIsWellFormedAndComplete) {
  const std::string json = SampleStatus().ToJson();
  std::string error;
  EXPECT_TRUE(JsonLint(json, &error)) << error;
  EXPECT_NE(json.find("\"experiment\": \"district\""), std::string::npos);
  EXPECT_NE(json.find("\"events_executed\": 123456"), std::string::npos);
  EXPECT_NE(json.find("\"replicas_stalled\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"build\": {"), std::string::npos);
  EXPECT_NE(json.find("\"stalled\": true"), std::string::npos);
}

TEST(RunStatusJsonTest, ToJsonLineIsOneWellFormedLine) {
  const std::string line = SampleStatus().ToJsonLine("heartbeat");
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // Exactly one line.
  std::string error;
  EXPECT_TRUE(JsonLint(line, &error)) << error;
  EXPECT_NE(line.find("\"event\":\"heartbeat\""), std::string::npos);
  EXPECT_NE(SampleStatus().ToJsonLine(nullptr).find("\"event\":\"heartbeat\""),
            std::string::npos);
  EXPECT_NE(SampleStatus().ToJsonLine("final").find("\"event\":\"final\""), std::string::npos);
}

TEST(RunStatusJsonTest, EmptyStatusStillLints) {
  std::string error;
  EXPECT_TRUE(JsonLint(RunStatus{}.ToJson(), &error)) << error;
  EXPECT_TRUE(JsonLint(RunStatus{}.ToJsonLine("heartbeat"), &error)) << error;
}

TEST(RunStatusTest, ReadRssBytesOnLinux) {
#ifdef __linux__
  EXPECT_GT(ReadRssBytes(), 0);
#else
  GTEST_SKIP() << "/proc not available";
#endif
}

TEST(BuildInfoTest, FieldsPresentAndJsonWellFormed) {
  const BuildInfo& info = GetBuildInfo();
  EXPECT_NE(info.git_sha, nullptr);
  EXPECT_GT(std::strlen(info.git_sha), 0u);
  EXPECT_NE(info.sanitizers, nullptr);
  EXPECT_GT(std::strlen(info.sanitizers), 0u);
  std::string error;
  EXPECT_TRUE(JsonLint(BuildInfoJson(), &error)) << error;

  // Both manifest flavors carry the build object.
  RunManifest manifest;
  manifest.run_name = "build-info-test";
  EXPECT_NE(manifest.ToJson().find("\"build\": {\"git_sha\""), std::string::npos);
  EnsembleManifest ensemble;
  EXPECT_NE(ensemble.ToJson().find("\"build\": {\"git_sha\""), std::string::npos);
}

TEST(SchedulerSnapshotJsonTest, RendersWellFormed) {
  Scheduler sched;
  for (int i = 0; i < 20; ++i) {
    sched.ScheduleAt(SimTime::Micros(10 * i), [] {});
  }
  sched.ScheduleAt(SimTime::Years(5), [] {});
  const std::string json = SchedulerSnapshotToJson(sched.Snapshot());
  std::string error;
  EXPECT_TRUE(JsonLint(json, &error)) << error;
  EXPECT_NE(json.find("\"pending\": 21"), std::string::npos);
  EXPECT_NE(json.find("\"rungs\": ["), std::string::npos);
}

// --- Atomic file replacement -------------------------------------------------

TEST(AtomicWriteFileTest, ReplacesContentWithoutTmpResidue) {
  const std::string path = testing::TempDir() + "atomic_write_test.json";
  std::remove((path + ".tmp").c_str());
  ASSERT_TRUE(AtomicWriteFile("{\"v\": 1}\n", path));
  EXPECT_EQ(ReadAll(path), "{\"v\": 1}\n");
  ASSERT_TRUE(AtomicWriteFile("{\"v\": 2}\n", path));
  EXPECT_EQ(ReadAll(path), "{\"v\": 2}\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, FailureReportsError) {
  std::string error;
  EXPECT_FALSE(AtomicWriteFile("x", "/nonexistent-dir-zz/f.json", &error));
  EXPECT_FALSE(error.empty());
}

TEST(FlushTest, MetricsFlushIsAtomicAndRepeatable) {
  const std::string path = testing::TempDir() + "flush_metrics_test.jsonl";
  MetricsRegistry registry;
  MetricInc(registry.GetCounter("flush.test"), 3.0);
  ASSERT_TRUE(FlushMetricsJsonl(registry, path));
  const std::string first = ReadAll(path);
  EXPECT_NE(first.find("flush.test"), std::string::npos);

  MetricInc(registry.GetCounter("flush.test"), 4.0);
  ASSERT_TRUE(FlushMetricsJsonl(registry, path));
  EXPECT_NE(ReadAll(path).find("7"), std::string::npos);  // Whole fresh snapshot.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(FlushTest, ChromeTraceFlushFileWritesCompleteTrace) {
  const std::string path = testing::TempDir() + "flush_trace_test.json";
  FlightRecorder recorder(16);
  recorder.Record("flush.cat", SimTime::Micros(10), 5);
  recorder.Record("flush.cat", SimTime::Micros(20), 6);
  ChromeTraceWriter trace("flush-test");
  trace.AddFlightRecording(recorder);
  EXPECT_GT(trace.event_count(), 0u);
  ASSERT_TRUE(trace.FlushFile(path));
  std::string error;
  EXPECT_TRUE(JsonLint(ReadAll(path), &error)) << error;
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::remove(path.c_str());
}

// --- Monitor heartbeat / status files ----------------------------------------

TEST(RunStatusMonitorTest, HeartbeatWritesStatusFiles) {
  const std::string dir = testing::TempDir() + "monitor_heartbeat_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ProgressCell cell;
  RunStatusMonitor::Options options;
  options.status_dir = dir;
  options.heartbeat_seconds = 0.02;
  options.run_name = "hb";
  options.experiment = "unit";
  options.horizon_us = 1000;
  RunStatusMonitor::ReplicaHooks hooks;
  hooks.cell = &cell;
  hooks.seed = 42;
  RunStatusMonitor monitor(options, {hooks});
  monitor.Start();
  for (int i = 1; i <= 20; ++i) {
    cell.Publish(i * 50, i * 50 + 1, static_cast<uint64_t>(i) * 10, 5, 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  cell.MarkDone(1000, 200);
  monitor.Stop();

  ASSERT_TRUE(fs::exists(dir + "/run_status.json"));
  EXPECT_FALSE(fs::exists(dir + "/run_status.json.tmp"));
  std::string error;
  const std::string status = ReadAll(dir + "/run_status.json");
  EXPECT_TRUE(JsonLint(status, &error)) << status << ": " << error;
  EXPECT_NE(status.find("\"replicas_done\": 1"), std::string::npos);
  EXPECT_NE(status.find("\"pct_of_horizon\": 100"), std::string::npos);

  // status.jsonl: every appended line parses, and the run ends "final".
  const std::string beats = ReadAll(dir + "/status.jsonl");
  std::istringstream in(beats);
  std::string line;
  std::string last;
  size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(JsonLint(line, &error)) << line << ": " << error;
    last = line;
    ++lines;
  }
  EXPECT_GT(lines, 1u);  // At least one heartbeat plus the final record.
  EXPECT_NE(last.find("\"event\":\"final\""), std::string::npos);

  fs::remove_all(dir);
}

TEST(RunStatusMonitorTest, RequestStatusNowAppendsStatusRequestBeat) {
  const std::string dir = testing::TempDir() + "monitor_request_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ProgressCell cell;
  RunStatusMonitor::Options options;
  options.status_dir = dir;
  options.heartbeat_seconds = 60.0;  // No natural heartbeat during the test.
  options.horizon_us = 1000;
  RunStatusMonitor::ReplicaHooks hooks;
  hooks.cell = &cell;
  RunStatusMonitor monitor(options, {hooks});
  monitor.Start();
  monitor.RequestStatusNow();
  // The monitor wakes at a 0.2 s granularity even with a slow cadence.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!fs::exists(dir + "/run_status.json") &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  monitor.Stop();

  EXPECT_NE(ReadAll(dir + "/status.jsonl").find("\"event\":\"status_request\""),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(RunStatusMonitorTest, BuildStatusWithoutStartIsUsable) {
  ProgressCell cell;
  cell.Publish(500, 600, 50, 4, 6);
  RunStatusMonitor::Options options;
  options.horizon_us = 1000;
  options.run_name = "one-shot";
  options.devices_per_replica = 10.0;
  RunStatusMonitor::ReplicaHooks hooks;
  hooks.cell = &cell;
  hooks.seed = 7;
  RunStatusMonitor monitor(options, {hooks});
  const RunStatus s = monitor.BuildStatus();
  ASSERT_EQ(s.replicas.size(), 1u);
  EXPECT_EQ(s.replicas[0].sim_us, 500);
  EXPECT_EQ(s.replicas[0].executed, 50u);
  EXPECT_EQ(s.sim_us, 500);
  EXPECT_EQ(s.events_executed, 50u);
  EXPECT_FALSE(s.replicas[0].done);
}

// --- Crash-dump registry ------------------------------------------------------

TEST(CrashDumpTest, RegisteredRecordersDumpToTheirPaths) {
  const std::string dir = testing::TempDir() + "crash_dump_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  FlightRecorder a(16);
  FlightRecorder b(16);
  a.Record("crash.a", SimTime::Micros(1), 11);
  b.Record("crash.b", SimTime::Micros(2), 22);
  {
    CrashDumpScope scope;
    scope.Add(&a, dir + "/a_flight.jsonl");
    scope.Add(&b, dir + "/b_flight.jsonl");
    EXPECT_GE(DumpRegisteredCrashRecorders(), 2u);
  }
  const std::string dump_a = ReadAll(dir + "/a_flight.jsonl");
  std::string error;
  EXPECT_TRUE(JsonLint(dump_a.substr(0, dump_a.find('\n')), &error)) << error;
  EXPECT_NE(dump_a.find("\"category\":\"crash.a\""), std::string::npos);
  EXPECT_NE(ReadAll(dir + "/b_flight.jsonl").find("\"category\":\"crash.b\""),
            std::string::npos);

  // Scope destruction unregistered both: a fresh dump writes nothing new.
  fs::remove_all(dir);
  fs::create_directories(dir);
  (void)DumpRegisteredCrashRecorders();
  EXPECT_FALSE(fs::exists(dir + "/a_flight.jsonl"));
  EXPECT_FALSE(fs::exists(dir + "/b_flight.jsonl"));
  fs::remove_all(dir);
}

TEST(CrashDumpTest, FlushHookRunsOnDumpPass) {
  static int flushes = 0;
  flushes = 0;
  SetCrashFlushHook([](void* ctx) { ++*static_cast<int*>(ctx); }, &flushes);
  (void)DumpRegisteredCrashRecorders();
  SetCrashFlushHook(nullptr, nullptr);
  EXPECT_EQ(flushes, 1);
}

TEST(CrashDumpTest, RejectsInvalidRegistrations) {
  FlightRecorder recorder(8);
  EXPECT_EQ(RegisterCrashDump(nullptr, "/tmp/x"), -1);
  EXPECT_EQ(RegisterCrashDump(&recorder, ""), -1);
  EXPECT_EQ(RegisterCrashDump(&recorder, std::string(600, 'p')), -1);
  UnregisterCrashDump(-1);  // Out-of-range tokens are ignored.
  UnregisterCrashDump(1 << 20);
}

}  // namespace
}  // namespace centsim
