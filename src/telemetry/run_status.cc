#include "src/telemetry/run_status.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/json.h"
#include "src/telemetry/run_manifest.h"

namespace centsim {

int64_t ReadRssBytes() {
#ifdef __linux__
  // statm field 2 is resident pages; no allocation-heavy parsing needed.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return -1;
  }
  long long total = 0;
  long long resident = 0;
  const int matched = std::fscanf(f, "%lld %lld", &total, &resident);
  std::fclose(f);
  if (matched != 2) {
    return -1;
  }
  return static_cast<int64_t>(resident) * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
#else
  return -1;
#endif
}

namespace {

// Extracts the `"path"` value from a checkpoint dir's LATEST.json marker
// (written by the snapshot layer only after its snapshot is durable). A
// deliberate ten-line scan, not a snapshot-library dependency: telemetry
// stays below src/snapshot in the layering.
std::string ReadLatestCheckpointPath(const std::string& checkpoint_dir) {
  if (checkpoint_dir.empty()) {
    return "";
  }
  std::ifstream in(checkpoint_dir + "/LATEST.json");
  if (!in) {
    return "";
  }
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::string key = "\"path\": \"";
  const size_t start = text.find(key);
  if (start == std::string::npos) {
    return "";
  }
  const size_t value = start + key.size();
  const size_t end = text.find('"', value);
  if (end == std::string::npos) {
    return "";
  }
  return text.substr(value, end - value);
}

std::string ReplicaRowJson(const ReplicaStatusRow& r) {
  std::string out = "{\"index\": " + std::to_string(r.index);
  out += ", \"seed\": " + std::to_string(r.seed);
  out += ", \"sim_us\": " + std::to_string(r.sim_us);
  out += ", \"pct_of_horizon\": " + JsonNumber(r.pct_of_horizon);
  out += ", \"next_event_us\": " + std::to_string(r.next_event_us);
  out += ", \"events_executed\": " + std::to_string(r.executed);
  out += ", \"events_per_sec\": " + JsonNumber(r.events_per_sec);
  out += ", \"pending\": " + std::to_string(r.pending);
  out += ", \"queue_entries\": " + std::to_string(r.queue_entries);
  out += std::string(", \"mode\": \"") +
         (r.mode != 0 ? "fast_forward" : "detailed") + "\"";
  out += ", \"sim_skipped_us\": " + std::to_string(r.sim_skipped_us);
  out += std::string(", \"done\": ") + (r.done ? "true" : "false");
  out += std::string(", \"stalled\": ") + (r.stalled ? "true" : "false");
  if (!r.stall_kind.empty()) {
    out += ", \"stall_kind\": \"" + JsonEscape(r.stall_kind) + "\"";
  }
  if (!r.latest_checkpoint.empty()) {
    out += ", \"latest_checkpoint\": \"" + JsonEscape(r.latest_checkpoint) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string RunStatus::ToJson() const {
  std::string out = "{\n";
  out += "  \"run_name\": \"" + JsonEscape(run_name) + "\",\n";
  out += "  \"experiment\": \"" + JsonEscape(experiment) + "\",\n";
  out += "  \"build\": " + BuildInfoJson() + ",\n";
  out += "  \"wall_seconds\": " + JsonNumber(wall_seconds) + ",\n";
  out += "  \"horizon_us\": " + std::to_string(horizon_us) + ",\n";
  out += "  \"sim_us\": " + std::to_string(sim_us) + ",\n";
  out += "  \"pct_of_horizon\": " + JsonNumber(pct_of_horizon) + ",\n";
  out += "  \"events_executed\": " + std::to_string(events_executed) + ",\n";
  out += "  \"events_per_sec\": " + JsonNumber(events_per_sec) + ",\n";
  out += "  \"device_years_per_sec\": " + JsonNumber(device_years_per_sec) + ",\n";
  out += "  \"eta_seconds\": " + JsonNumber(eta_seconds) + ",\n";
  out += "  \"queue_entries\": " + std::to_string(queue_entries) + ",\n";
  out += "  \"rss_bytes\": " + std::to_string(rss_bytes) + ",\n";
  out += "  \"replicas_done\": " + std::to_string(replicas_done) + ",\n";
  out += "  \"replicas_stalled\": " + std::to_string(replicas_stalled) + ",\n";
  out += "  \"replicas\": [";
  bool first = true;
  for (const ReplicaStatusRow& r : replicas) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += ReplicaRowJson(r);
  }
  out += replicas.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string RunStatus::ToJsonLine(const char* event) const {
  std::string out = "{\"event\":\"" + JsonEscape(event != nullptr ? event : "heartbeat") + "\"";
  out += ",\"wall_seconds\":" + JsonNumber(wall_seconds);
  out += ",\"sim_us\":" + std::to_string(sim_us);
  out += ",\"pct_of_horizon\":" + JsonNumber(pct_of_horizon);
  out += ",\"events_executed\":" + std::to_string(events_executed);
  out += ",\"events_per_sec\":" + JsonNumber(events_per_sec);
  out += ",\"device_years_per_sec\":" + JsonNumber(device_years_per_sec);
  out += ",\"eta_seconds\":" + JsonNumber(eta_seconds);
  out += ",\"queue_entries\":" + std::to_string(queue_entries);
  out += ",\"rss_bytes\":" + std::to_string(rss_bytes);
  out += ",\"replicas_done\":" + std::to_string(replicas_done);
  out += ",\"replicas_stalled\":" + std::to_string(replicas_stalled);
  out += "}\n";
  return out;
}

std::string SchedulerSnapshotToJson(const SchedulerSnapshot& snap) {
  std::string out = "{\n";
  out += "  \"now_us\": " + std::to_string(snap.now_us) + ",\n";
  out += "  \"next_event_us\": " + std::to_string(snap.next_event_us) + ",\n";
  out += std::string("  \"queue_empty\": ") + (snap.queue_empty ? "true" : "false") + ",\n";
  out += "  \"pending\": " + std::to_string(snap.pending) + ",\n";
  out += "  \"executed\": " + std::to_string(snap.executed) + ",\n";
  out += "  \"late_schedules\": " + std::to_string(snap.late_schedules) + ",\n";
  out += "  \"heap_size\": " + std::to_string(snap.heap_size) + ",\n";
  out += "  \"staged\": " + std::to_string(snap.staged) + ",\n";
  out += "  \"run_remaining\": " + std::to_string(snap.run_remaining) + ",\n";
  out += "  \"far_count\": " + std::to_string(snap.far_count) + ",\n";
  out += "  \"rungs\": [";
  bool first = true;
  for (const SchedulerSnapshot::RungInfo& r : snap.rungs) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"start_us\": " + std::to_string(r.start_us);
    out += ", \"end_us\": " + std::to_string(r.end_us);
    out += ", \"width_us\": " + std::to_string(r.width_us);
    out += ", \"bucket_count\": " + std::to_string(r.bucket_count);
    out += ", \"next_bucket\": " + std::to_string(r.next_bucket);
    out += ", \"entries\": " + std::to_string(r.entries) + "}";
  }
  out += snap.rungs.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool WriteFlightRecorderJsonl(const FlightRecorder& recorder, const std::string& path,
                              std::string* error) {
  std::ostringstream out;
  for (const FlightRecorder::Entry& e : recorder.Snapshot()) {
    out << "{\"seq\":" << e.seq << ",\"category\":\""
        << JsonEscape(e.category != nullptr ? e.category : "?") << "\",\"sim_us\":"
        << e.sim_at.micros() << ",\"wall_ns\":" << e.wall_ns << ",\"arg\":" << e.arg << "}\n";
  }
  return AtomicWriteFile(out.str(), path, error);
}

RunStatusMonitor::RunStatusMonitor(Options options, std::vector<ReplicaHooks> replicas)
    : options_(std::move(options)),
      replicas_(std::move(replicas)),
      tracks_(replicas_.size()),
      stalled_(replicas_.size(), 0) {}

RunStatusMonitor::~RunStatusMonitor() { Stop(); }

void RunStatusMonitor::Start() {
  if (running_.exchange(true)) {
    return;
  }
  start_ = Clock::now();
  prev_beat_ = start_;
  prev_total_executed_ = 0;
  prev_min_sim_us_ = 0;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const ProgressCell::View v = replicas_[i].cell->Load();
    tracks_[i].last_executed = v.executed;
    tracks_[i].last_sim_us = v.sim_us;
    tracks_[i].last_advance = start_;
    tracks_[i].prev_executed = v.executed;
    tracks_[i].prev_sim_us = v.sim_us;
  }
  thread_ = std::thread([this] { ThreadBody(); });
}

void RunStatusMonitor::Stop() {
  const bool was_running = running_.exchange(false);
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  if (was_running) {
    std::lock_guard<std::mutex> lock(mu_);
    CheckWatchdog();
    Beat("final");
  }
}

void RunStatusMonitor::RequestStatusNow() {
  status_requested_.store(true, std::memory_order_release);
  cv_.notify_all();
}

RunStatus RunStatusMonitor::BuildStatus() {
  std::lock_guard<std::mutex> lock(mu_);
  return BuildStatusLocked(Clock::now());
}

bool RunStatusMonitor::WasStalled(uint32_t index) const {
  return index < stalled_.size() && stalled_[index] != 0;
}

uint32_t RunStatusMonitor::stalled_count() const {
  return stalled_count_.load(std::memory_order_acquire);
}

void RunStatusMonitor::ThreadBody() {
  std::unique_lock<std::mutex> lock(mu_);
  // Wake at a finer granularity than the heartbeat so the watchdog and
  // SIGUSR1 responses stay snappy even with a slow cadence.
  const double tick = std::min(options_.heartbeat_seconds, 0.2);
  while (running_.load(std::memory_order_acquire)) {
    cv_.wait_for(lock, std::chrono::duration<double>(tick > 0.0 ? tick : 0.2));
    if (!running_.load(std::memory_order_acquire)) {
      break;
    }
    CheckWatchdog();
    const bool requested =
        status_requested_.exchange(false, std::memory_order_acq_rel) || ConsumeStatusRequest();
    const double since_beat =
        std::chrono::duration<double>(Clock::now() - prev_beat_).count();
    if (requested || since_beat >= options_.heartbeat_seconds) {
      Beat(requested ? "status_request" : "heartbeat");
    }
  }
}

RunStatus RunStatusMonitor::BuildStatusLocked(Clock::time_point now) {
  RunStatus s;
  s.run_name = options_.run_name;
  s.experiment = options_.experiment;
  s.horizon_us = options_.horizon_us;
  s.wall_seconds = std::chrono::duration<double>(now - start_).count();
  s.rss_bytes = ReadRssBytes();
  const double interval = std::chrono::duration<double>(now - prev_beat_).count();
  int64_t min_sim = INT64_MAX;
  double eta = -1.0;
  bool all_done = !replicas_.empty();
  double sim_us_advanced = 0.0;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const ProgressCell::View v = replicas_[i].cell->Load();
    ReplicaStatusRow row;
    row.index = static_cast<uint32_t>(i);
    row.seed = replicas_[i].seed;
    row.sim_us = v.done && options_.horizon_us > 0 ? options_.horizon_us : v.sim_us;
    row.next_event_us = v.next_event_us;
    row.executed = v.executed;
    row.pending = v.pending;
    row.queue_entries = v.queue_entries;
    row.mode = v.mode;
    row.sim_skipped_us = v.sim_skipped_us;
    row.done = v.done;
    row.stalled = stalled_[i] != 0 || v.stalled;
    row.stall_kind = row.stalled ? tracks_[i].stall_kind : "";
    row.latest_checkpoint = ReadLatestCheckpointPath(replicas_[i].checkpoint_dir);
    if (options_.horizon_us > 0) {
      row.pct_of_horizon =
          v.done ? 100.0
                 : 100.0 * static_cast<double>(row.sim_us) / static_cast<double>(options_.horizon_us);
    }
    if (interval > 0.0) {
      row.events_per_sec =
          static_cast<double>(v.executed - tracks_[i].prev_executed) / interval;
      sim_us_advanced += static_cast<double>(row.sim_us - tracks_[i].prev_sim_us);
      if (!v.done && row.sim_us > tracks_[i].prev_sim_us) {
        const double rate_us =
            static_cast<double>(row.sim_us - tracks_[i].prev_sim_us) / interval;
        const double remaining = static_cast<double>(options_.horizon_us - row.sim_us);
        if (rate_us > 0.0 && remaining > 0.0) {
          eta = std::max(eta, remaining / rate_us);
        }
      }
    }
    s.events_executed += v.executed;
    s.queue_entries += v.queue_entries;
    s.replicas_done += v.done ? 1 : 0;
    s.replicas_stalled += row.stalled ? 1 : 0;
    all_done = all_done && v.done;
    min_sim = std::min(min_sim, row.sim_us);
    s.replicas.push_back(row);
  }
  s.sim_us = min_sim == INT64_MAX ? 0 : min_sim;
  if (options_.horizon_us > 0) {
    s.pct_of_horizon =
        all_done ? 100.0
                 : 100.0 * static_cast<double>(s.sim_us) / static_cast<double>(options_.horizon_us);
  }
  if (interval > 0.0) {
    s.events_per_sec =
        static_cast<double>(s.events_executed - prev_total_executed_) / interval;
    if (options_.devices_per_replica > 0.0) {
      s.device_years_per_sec = SimTime::Micros(static_cast<int64_t>(sim_us_advanced)).ToYears() *
                               options_.devices_per_replica / interval;
    }
  }
  s.eta_seconds = all_done ? 0.0 : eta;
  return s;
}

void RunStatusMonitor::Beat(const char* event) {
  const Clock::time_point now = Clock::now();
  const RunStatus s = BuildStatusLocked(now);
  // Advance the rate window only on real beats.
  for (size_t i = 0; i < s.replicas.size(); ++i) {
    tracks_[i].prev_executed = s.replicas[i].executed;
    tracks_[i].prev_sim_us = s.replicas[i].sim_us;
  }
  prev_total_executed_ = s.events_executed;
  prev_min_sim_us_ = s.sim_us;
  prev_beat_ = now;
  if (options_.status_dir.empty()) {
    return;
  }
  AtomicWriteFile(s.ToJson(), options_.status_dir + "/run_status.json");
  std::ofstream heartbeat(options_.status_dir + "/status.jsonl", std::ios::app);
  if (heartbeat) {
    heartbeat << s.ToJsonLine(event) << std::flush;
  }
}

void RunStatusMonitor::CheckWatchdog() {
  if (options_.stall_deadline_seconds <= 0.0) {
    return;
  }
  const Clock::time_point now = Clock::now();
  for (size_t i = 0; i < replicas_.size(); ++i) {
    ReplicaTrack& t = tracks_[i];
    const ProgressCell::View v = replicas_[i].cell->Load();
    if (v.done) {
      continue;
    }
    // Progress = sim time OR executed count moved: a long same-timestamp
    // event run is progress, a wedged callback is not. A sharded replica's
    // cell advances at its barriers.
    const bool advanced = v.executed != t.last_executed || v.sim_us != t.last_sim_us;
    t.last_executed = v.executed;
    t.last_sim_us = v.sim_us;
    if (advanced) {
      t.last_advance = now;
      continue;
    }
    const double stuck_for = std::chrono::duration<double>(now - t.last_advance).count();
    if (stuck_for < options_.stall_deadline_seconds || t.dumped) {
      continue;
    }
    t.dumped = true;
    t.stall_kind = "replica_stalled";
    stalled_[i] = 1;
    replicas_[i].cell->stalled.store(1, std::memory_order_release);
    stalled_count_.fetch_add(1, std::memory_order_acq_rel);
    DumpStalledReplica(i);
    Beat("stall");
  }
}

void RunStatusMonitor::DumpStalledReplica(size_t i) {
  if (options_.status_dir.empty()) {
    return;
  }
  const std::string base = options_.status_dir + "/replica_" + std::to_string(i);
  // The scheduler snapshot and the recovery note come first: whoever
  // watches for the flight dump may release the replica once it exists,
  // and a released replica can finish and clear its scheduler slot.
  if (options_.deep_stall_snapshot && replicas_[i].scheduler_slot != nullptr) {
    // Best-effort: the replica may genuinely still be running. The slot's
    // lock only guarantees the Scheduler object is alive, not quiescent —
    // fields may be mid-update, and the resulting snapshot approximate.
    // That is the right trade for a stall dump.
    std::string snapshot_json;
    replicas_[i].scheduler_slot->With(
        [&](Scheduler& sched) { snapshot_json = SchedulerSnapshotToJson(sched.Snapshot()); });
    if (!snapshot_json.empty()) {
      AtomicWriteFile(snapshot_json, base + "_sched.json");
    }
  }
  // Recovery note: name the newest durable checkpoint so whoever kills
  // this wedged run knows exactly what to resume from.
  if (!replicas_[i].checkpoint_dir.empty()) {
    const std::string latest = ReadLatestCheckpointPath(replicas_[i].checkpoint_dir);
    std::string note = "{\n";
    note += "  \"stalled_replica\": " + std::to_string(i) + ",\n";
    note += "  \"checkpoint_dir\": \"" + JsonEscape(replicas_[i].checkpoint_dir) + "\",\n";
    note += "  \"latest_checkpoint\": \"" + JsonEscape(latest) + "\",\n";
    note += std::string("  \"resume_hint\": \"re-run with snapshot.resume_latest (or ") +
            "EnsembleOptions.resume_from_checkpoint) to continue from the checkpoint above\"\n";
    note += "}\n";
    AtomicWriteFile(note, base + "_recovery.json");
  }
  if (replicas_[i].recorder != nullptr) {
    WriteFlightRecorderJsonl(*replicas_[i].recorder, base + "_flight.jsonl");
    ChromeTraceWriter trace("replica_" + std::to_string(i));
    trace.AddFlightRecording(*replicas_[i].recorder);
    trace.FlushFile(base + "_flight_trace.json");
  }
}

// ---------------------------------------------------------------------------
// Signal plumbing.

namespace {

std::atomic<bool> g_status_requested{false};
std::atomic<bool> g_status_handler_installed{false};

void StatusSignalHandler(int /*sig*/) {
  g_status_requested.store(true, std::memory_order_release);
}

constexpr int kMaxCrashSlots = 64;
struct CrashSlot {
  std::atomic<const FlightRecorder*> recorder{nullptr};
  char path[512] = {0};
};
CrashSlot g_crash_slots[kMaxCrashSlots];
std::mutex g_crash_mu;  // Serializes register/unregister, never the handler.
std::atomic<void (*)(void*)> g_flush_fn{nullptr};
std::atomic<void*> g_flush_ctx{nullptr};
std::atomic<bool> g_crash_handlers_installed{false};

constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};

// Async-signal-safe dump pass: atomics + open/write/close only.
size_t DumpAllCrashSlots() {
  size_t dumped = 0;
  for (CrashSlot& slot : g_crash_slots) {
    const FlightRecorder* recorder = slot.recorder.load(std::memory_order_acquire);
    if (recorder == nullptr) {
      continue;
    }
    const int fd = open(slot.path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      continue;
    }
    recorder->DumpTo(fd);
    close(fd);
    ++dumped;
  }
  return dumped;
}

void CrashSignalHandler(int sig) {
  DumpAllCrashSlots();
  void (*fn)(void*) = g_flush_fn.load(std::memory_order_acquire);
  if (fn != nullptr) {
    fn(g_flush_ctx.load(std::memory_order_acquire));
  }
  signal(sig, SIG_DFL);
  raise(sig);
}

}  // namespace

void InstallStatusSignalHandler() {
  if (g_status_handler_installed.exchange(true)) {
    return;
  }
  struct sigaction action = {};
  action.sa_handler = StatusSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &action, nullptr);
}

bool ConsumeStatusRequest() {
  return g_status_requested.exchange(false, std::memory_order_acq_rel);
}

void InstallCrashSignalHandlers() {
  if (g_crash_handlers_installed.exchange(true)) {
    return;
  }
  struct sigaction action = {};
  action.sa_handler = CrashSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  for (const int sig : kFatalSignals) {
    sigaction(sig, &action, nullptr);
  }
}

int RegisterCrashDump(const FlightRecorder* recorder, const std::string& path) {
  if (recorder == nullptr || path.empty() || path.size() >= sizeof(CrashSlot{}.path)) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(g_crash_mu);
  for (int i = 0; i < kMaxCrashSlots; ++i) {
    if (g_crash_slots[i].recorder.load(std::memory_order_relaxed) != nullptr) {
      continue;
    }
    // Path first, then publish the recorder: a handler firing mid-register
    // either skips the slot or sees a complete one.
    std::snprintf(g_crash_slots[i].path, sizeof(g_crash_slots[i].path), "%s", path.c_str());
    g_crash_slots[i].recorder.store(recorder, std::memory_order_release);
    InstallCrashSignalHandlers();
    return i;
  }
  return -1;  // Registry full; dump coverage degrades, the run continues.
}

void UnregisterCrashDump(int token) {
  if (token < 0 || token >= kMaxCrashSlots) {
    return;
  }
  std::lock_guard<std::mutex> lock(g_crash_mu);
  g_crash_slots[token].recorder.store(nullptr, std::memory_order_release);
}

void SetCrashFlushHook(void (*fn)(void*), void* ctx) {
  g_flush_ctx.store(ctx, std::memory_order_release);
  g_flush_fn.store(fn, std::memory_order_release);
}

size_t DumpRegisteredCrashRecorders() {
  const size_t dumped = DumpAllCrashSlots();
  void (*fn)(void*) = g_flush_fn.load(std::memory_order_acquire);
  if (fn != nullptr) {
    fn(g_flush_ctx.load(std::memory_order_acquire));
  }
  return dumped;
}

}  // namespace centsim
