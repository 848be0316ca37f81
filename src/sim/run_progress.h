// Live run-control plumbing shared by the scheduler, the experiment
// drivers, and the ensemble engine.
//
// A ProgressCell is one replica's lock-free progress mailbox: the
// scheduler publishes (sim time, executed events, queue depth, next event
// time) into it from the profiler's sampled depth path — the per-event hot
// path is untouched — and the RunStatusMonitor thread reads it on a
// wall-clock cadence to write run_status.json, append heartbeats, and
// detect stalls. RunControlHooks bundles the per-replica observability
// attachments every experiment Config now carries, so EnsembleRunner can
// wire N replicas without per-experiment glue.

#ifndef SRC_SIM_RUN_PROGRESS_H_
#define SRC_SIM_RUN_PROGRESS_H_

#include <atomic>
#include <cstdint>
#include <mutex>

namespace centsim {

class Scheduler;
class SchedulerProfiler;
class FlightRecorder;

// Single-writer (the replica's simulation thread), multi-reader (the
// monitor), as a seqlock: a publish leaves `ticks` odd while it stores a
// row and even (two more than before) once the row is whole, and Load
// retries until it reads the same even `ticks` before and after the
// fields, so a loaded row is one publish's, never a mix of two. Field
// stores are release and field loads acquire: a reader that sees any
// field of a publish in flight then sees its odd `ticks` and retries.
// `stalled` is the watchdog's, written outside the sequence.
struct ProgressCell {
  std::atomic<int64_t> sim_us{0};
  std::atomic<int64_t> next_event_us{0};
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> pending{0};       // Live (non-cancelled) events.
  std::atomic<uint64_t> queue_entries{0}; // Raw heap + staged + run tail.
  std::atomic<uint64_t> ticks{0};         // Twice the publishes so far; odd mid-publish.
  std::atomic<uint8_t> done{0};
  std::atomic<uint8_t> stalled{0};        // Set by the watchdog, sticky.
  // Sampled-engine columns (src/sim/sampling.h): which time-advance level
  // the replica is currently on (0 = detailed, 1 = fast_forward) and how
  // much simulated time fast-forward has skipped so far. Both stay at
  // their zero defaults under the serial engine, so monitor-side
  // events-per-second math can subtract skipped spans unconditionally.
  std::atomic<uint8_t> mode{0};
  std::atomic<int64_t> sim_skipped_us{0};

  void Publish(int64_t now_us, int64_t next_us, uint64_t executed_count, uint64_t live,
               uint64_t entries) {
    Write([&] { StoreRow(now_us, next_us, executed_count, live, entries); });
  }

  // A sampled engine's row: its level and skipped time with a Publish of
  // (now, now, executed, 0, 0), in one publish.
  void PublishSampling(uint8_t level, int64_t skipped_us, int64_t now_us,
                       uint64_t executed_count) {
    Write([&] {
      mode.store(level, std::memory_order_release);
      sim_skipped_us.store(skipped_us, std::memory_order_release);
      StoreRow(now_us, now_us, executed_count, 0, 0);
    });
  }

  // Final publish when the replica's Run() returns.
  void MarkDone(int64_t final_sim_us, uint64_t final_executed) {
    Write([&] {
      sim_us.store(final_sim_us, std::memory_order_release);
      executed.store(final_executed, std::memory_order_release);
      pending.store(0, std::memory_order_release);
      queue_entries.store(0, std::memory_order_release);
      done.store(1, std::memory_order_release);
    });
  }

  // One publish's row.
  struct View {
    uint64_t ticks = 0;  // Publishes so far.
    int64_t sim_us = 0;
    int64_t next_event_us = 0;
    uint64_t executed = 0;
    uint64_t pending = 0;
    uint64_t queue_entries = 0;
    bool done = false;
    bool stalled = false;
    uint8_t mode = 0;  // 0 = detailed, 1 = fast_forward.
    int64_t sim_skipped_us = 0;
  };
  View Load() const {
    View v;
    for (;;) {
      const uint64_t before = ticks.load(std::memory_order_acquire);
      v.sim_us = sim_us.load(std::memory_order_acquire);
      v.next_event_us = next_event_us.load(std::memory_order_acquire);
      v.executed = executed.load(std::memory_order_acquire);
      v.pending = pending.load(std::memory_order_acquire);
      v.queue_entries = queue_entries.load(std::memory_order_acquire);
      v.done = done.load(std::memory_order_acquire) != 0;
      v.mode = mode.load(std::memory_order_acquire);
      v.sim_skipped_us = sim_skipped_us.load(std::memory_order_acquire);
      if (before % 2 == 0 && ticks.load(std::memory_order_relaxed) == before) {
        v.ticks = before / 2;
        break;
      }
    }
    v.stalled = stalled.load(std::memory_order_relaxed) != 0;
    return v;
  }

 private:
  // Only the one writer moves `ticks`, so a plain load-and-store pair
  // brackets the row.
  template <typename Fn>
  void Write(Fn&& store_row) {
    const uint64_t seq = ticks.load(std::memory_order_relaxed);
    ticks.store(seq + 1, std::memory_order_relaxed);
    store_row();
    ticks.store(seq + 2, std::memory_order_release);
  }

  void StoreRow(int64_t now_us, int64_t next_us, uint64_t executed_count, uint64_t live,
                uint64_t entries) {
    sim_us.store(now_us, std::memory_order_release);
    next_event_us.store(next_us, std::memory_order_release);
    executed.store(executed_count, std::memory_order_release);
    pending.store(live, std::memory_order_release);
    queue_entries.store(entries, std::memory_order_release);
  }
};

// Mutex-guarded registration slot for a live Scheduler pointer. The driver
// sets it while its Simulation exists and clears it before teardown; the
// watchdog locks it to take a best-effort deep SchedulerSnapshot of a
// stalled replica. The lock protects the *lifetime* (no snapshot during
// destruction); reading a genuinely running scheduler is inherently racy
// and only attempted on a replica the watchdog already believes is stuck.
class SchedulerSlot {
 public:
  void Set(Scheduler* sched) {
    std::lock_guard<std::mutex> lock(mu_);
    sched_ = sched;
  }
  // Runs `fn(Scheduler&)` under the lock when a scheduler is registered.
  template <typename Fn>
  bool With(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    if (sched_ == nullptr) {
      return false;
    }
    fn(*sched_);
    return true;
  }

 private:
  std::mutex mu_;
  Scheduler* sched_ = nullptr;
};

// Per-replica observability attachments, all optional and all owned by the
// caller (EnsembleRunner, a bench, or a test). Drivers wire these via
// Scheduler::AttachRunControl; a default-constructed value is inert.
struct RunControlHooks {
  // Execution profiler; heartbeat publishing piggybacks on its sampled
  // depth path, so progress/recorder hooks are only serviced when a
  // profiler is attached.
  SchedulerProfiler* profiler = nullptr;
  FlightRecorder* recorder = nullptr;
  ProgressCell* progress = nullptr;
  SchedulerSlot* scheduler_slot = nullptr;

  bool any() const {
    return profiler != nullptr || recorder != nullptr || progress != nullptr ||
           scheduler_slot != nullptr;
  }
};

}  // namespace centsim

#endif  // SRC_SIM_RUN_PROGRESS_H_
