// Live run control: heartbeat status files, stall watchdog, and crash-dump
// plumbing for long runs (ROADMAP: the operational story long ensemble
// runs need before intra-run parallel DES and checkpoint/restore).
//
// Data flow: each replica's Scheduler publishes progress into a
// ProgressCell (src/sim/run_progress.h) from the profiler's sampled depth
// path; a RunStatusMonitor thread reads every cell on a wall-clock cadence
// and (a) atomically rewrites `run_status.json` — always a complete,
// parseable snapshot, safe to `watch cat` — (b) appends one compact record
// per beat to `status.jsonl`, and (c) runs the watchdog: a replica whose
// progress has not advanced within the stall deadline gets its flight
// recorder and a best-effort scheduler snapshot dumped, and is flagged
// stalled (sticky) for the ensemble manifest.
//
// On-demand and on-death paths: SIGUSR1 requests an immediate status write
// from a running monitor; fatal signals (SIGSEGV/SIGBUS/SIGFPE/SIGILL/
// SIGABRT) dump every registered flight recorder straight to files with
// write(2) before the default action re-raises.

#ifndef SRC_TELEMETRY_RUN_STATUS_H_
#define SRC_TELEMETRY_RUN_STATUS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/flight_recorder.h"
#include "src/sim/run_progress.h"
#include "src/sim/scheduler.h"

namespace centsim {

// Resident set size of this process in bytes; -1 where /proc is absent.
int64_t ReadRssBytes();

// One replica's row in run_status.json.
struct ReplicaStatusRow {
  uint32_t index = 0;
  uint64_t seed = 0;
  int64_t sim_us = 0;
  int64_t next_event_us = 0;
  uint64_t executed = 0;
  uint64_t pending = 0;
  uint64_t queue_entries = 0;
  double events_per_sec = 0.0;  // Over the last heartbeat interval.
  double pct_of_horizon = 0.0;
  // Sampled-engine telemetry (src/sim/sampling.h): which level the replica
  // is in right now (0 = detailed, 1 = fast_forward) and how much simulated
  // time its fast-forward has skipped so far. Zero under serial engines.
  uint8_t mode = 0;
  int64_t sim_skipped_us = 0;
  bool done = false;
  bool stalled = false;
  // Stall diagnosis (set when `stalled`): "replica_stalled".
  std::string stall_kind;
  // Newest durable checkpoint (from the replica checkpoint dir's
  // LATEST.json marker); empty when the replica is not checkpointing or
  // none has landed yet. What a custodian resumes from after a crash.
  std::string latest_checkpoint;
};

// A full status snapshot: the aggregate header plus per-replica rows.
struct RunStatus {
  std::string run_name;
  std::string experiment;
  double wall_seconds = 0.0;
  int64_t horizon_us = 0;
  int64_t sim_us = 0;  // Slowest live replica (min), the honest frontier.
  double pct_of_horizon = 0.0;
  uint64_t events_executed = 0;
  double events_per_sec = 0.0;        // Aggregate, last-interval.
  double device_years_per_sec = 0.0;  // 0 when the device count is unknown.
  double eta_seconds = -1.0;          // < 0: unknown (no rate yet).
  uint64_t queue_entries = 0;
  int64_t rss_bytes = -1;
  uint32_t replicas_done = 0;
  uint32_t replicas_stalled = 0;
  std::vector<ReplicaStatusRow> replicas;

  // Pretty multi-line document for run_status.json (includes build info).
  std::string ToJson() const;
  // One compact line for status.jsonl; `event` is "heartbeat", "stall",
  // "status_request", or "final".
  std::string ToJsonLine(const char* event) const;
};

// JSON rendering of a SchedulerSnapshot (the stall-dump artifact).
std::string SchedulerSnapshotToJson(const SchedulerSnapshot& snap);

// Dumps a flight recorder's retained window as JSONL (one entry object per
// line, oldest first). The cooperative-path sibling of DumpTo(fd).
bool WriteFlightRecorderJsonl(const FlightRecorder& recorder, const std::string& path,
                              std::string* error = nullptr);

// The background status/watchdog thread for one run (single replica or
// ensemble). Owns no simulation state: it reads the ProgressCells and
// FlightRecorders the caller wires in, all of which must outlive it.
class RunStatusMonitor {
 public:
  struct Options {
    std::string status_dir;  // Required; files land here.
    double heartbeat_seconds = 1.0;
    // 0 disables the watchdog. A replica counts as advancing when its sim
    // time or executed-event count moves (a long same-timestamp drain is
    // progress; a wedged callback is not).
    double stall_deadline_seconds = 0.0;
    // On stall, also lock the replica's SchedulerSlot and take a deep
    // Scheduler::Snapshot(). Best-effort and inherently racy against a
    // replica that is in fact still running — keep it on for production
    // forensics, off under TSan.
    bool deep_stall_snapshot = true;
    std::string run_name;
    std::string experiment;
    int64_t horizon_us = 0;
    // Devices simulated per replica; enables the device-years/sec gauge.
    double devices_per_replica = 0.0;
  };

  // A sharded replica publishes into its one replica cell at each barrier.
  struct ReplicaHooks {
    ProgressCell* cell = nullptr;            // Required.
    FlightRecorder* recorder = nullptr;      // Optional (stall dumps).
    SchedulerSlot* scheduler_slot = nullptr; // Optional (deep snapshots).
    uint64_t seed = 0;
    // Optional: where this replica writes checkpoints. Status rows and
    // stall dumps then name the latest durable snapshot, so recovery after
    // a wedge/crash starts from a known-good file instead of an archaeology
    // dig.
    std::string checkpoint_dir;
  };

  RunStatusMonitor(Options options, std::vector<ReplicaHooks> replicas);
  ~RunStatusMonitor();
  RunStatusMonitor(const RunStatusMonitor&) = delete;
  RunStatusMonitor& operator=(const RunStatusMonitor&) = delete;

  void Start();
  // Final status write ("final" heartbeat), then joins the thread.
  // Idempotent; the destructor calls it.
  void Stop();

  // Asks the monitor thread for an immediate status write (the SIGUSR1
  // poll path and tests use this; safe from any thread).
  void RequestStatusNow();

  // Builds a status snapshot from the current cell contents. Thread-safe;
  // also usable without Start() for one-shot status rendering.
  RunStatus BuildStatus();

  // Sticky per-replica stall verdicts for the ensemble manifest.
  bool WasStalled(uint32_t index) const;
  uint32_t stalled_count() const;

  const Options& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  void ThreadBody();
  RunStatus BuildStatusLocked(Clock::time_point now);
  void Beat(const char* event);  // Build + write + append, under mu_.
  void CheckWatchdog();
  void DumpStalledReplica(size_t i);

  Options options_;
  std::vector<ReplicaHooks> replicas_;

  // Per-replica bookkeeping, monitor-thread-only after Start().
  struct ReplicaTrack {
    uint64_t last_executed = 0;
    int64_t last_sim_us = 0;
    Clock::time_point last_advance;
    uint64_t prev_executed = 0;  // At the previous heartbeat.
    int64_t prev_sim_us = 0;
    bool dumped = false;
    // Stall verdict, set with `dumped`: what the status row reports.
    std::string stall_kind;
  };
  std::vector<ReplicaTrack> tracks_;
  std::vector<uint8_t> stalled_;  // Sticky flags; written by monitor only.
  std::atomic<uint32_t> stalled_count_{0};

  Clock::time_point start_;
  Clock::time_point prev_beat_;
  uint64_t prev_total_executed_ = 0;
  int64_t prev_min_sim_us_ = 0;

  std::mutex mu_;  // Guards cv_ wakeups and BuildStatus's track reads.
  std::condition_variable cv_;
  std::atomic<bool> running_{false};
  std::atomic<bool> status_requested_{false};
  std::thread thread_;
};

// SIGUSR1 on-demand status: installs a handler that records the request
// in an async-signal-safe flag. A running RunStatusMonitor polls it (via
// ConsumeStatusRequest) and answers with an immediate "status_request"
// beat. Idempotent.
void InstallStatusSignalHandler();
// True once per delivered SIGUSR1 (consumes the flag).
bool ConsumeStatusRequest();

// Fatal-signal flight-recorder dumps. Registration is mutex-guarded (call
// from normal code only); the signal handler itself reads the registry
// with atomics and writes dumps with open/write/close(2) — no locks, no
// allocation — then restores the default action and re-raises.
//
// RegisterCrashDump returns a slot token for Unregister; both are cheap.
// InstallCrashSignalHandlers is idempotent and installed automatically by
// the first registration.
int RegisterCrashDump(const FlightRecorder* recorder, const std::string& path);
void UnregisterCrashDump(int token);
void InstallCrashSignalHandlers();
// Optional extra flush invoked from the crash handler AFTER the recorder
// dumps (e.g. a metrics flush). Best-effort: it may allocate, which is
// formally unsafe in a signal handler — acceptable for a process that is
// already dying. nullptr clears.
void SetCrashFlushHook(void (*fn)(void*), void* ctx);
// Runs the handler's dump pass directly (no signal involved): dumps every
// registered recorder and invokes the flush hook. Returns dumps written.
// Exposed so tests can exercise the crash path in-process.
size_t DumpRegisteredCrashRecorders();

// RAII: registers the recorder/path pairs on construction, unregisters on
// destruction. The natural way for a driver or EnsembleRunner to scope
// crash dumps to a run.
class CrashDumpScope {
 public:
  CrashDumpScope() = default;
  ~CrashDumpScope() { Clear(); }
  CrashDumpScope(const CrashDumpScope&) = delete;
  CrashDumpScope& operator=(const CrashDumpScope&) = delete;

  void Add(const FlightRecorder* recorder, const std::string& path) {
    tokens_.push_back(RegisterCrashDump(recorder, path));
  }
  void Clear() {
    for (const int token : tokens_) {
      UnregisterCrashDump(token);
    }
    tokens_.clear();
  }

 private:
  std::vector<int> tokens_;
};

}  // namespace centsim

#endif  // SRC_TELEMETRY_RUN_STATUS_H_
