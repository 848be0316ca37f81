// Discrete-event scheduler.
//
// Events are closures keyed by (time, sequence number); ties in time run in
// schedule order, which makes every run with the same seed bit-for-bit
// deterministic. The storage layer is allocation-free in steady state:
// closures live inline in a slot-indexed EventPool (EventFn is
// InlineFn<void()>, src/sim/inline_fn.h), handles are generation-tagged so
// Cancel is a single O(1) comparison, and pending entries sit in a
// cache-friendly 4-ary min-heap. Cancellation is lazy: a cancelled event's heap entry
// stays until popped, where a generation mismatch identifies it as stale.
//
// The heap only ever holds the *near* window of pending events. An
// implicit heap pops through a chain of dependent cache misses that grows
// with its size (~log4 N lines per pop, most of them cold once the heap
// outgrows L2), so events past the near window stage in unsorted,
// time-bucketed rungs (a ladder-queue-style front-end: append-only,
// sequential, O(1) per event) and enter the heap one bucket at a time as
// the clock reaches them. Ordering is untouched — every entry still pops
// in exact (time, seq) order, buckets only bound how many entries compete
// in the heap at once. Queues that never exceed kDirectLoadMax pending
// events skip the rungs entirely and run on the bare heap.

#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/event_pool.h"
#include "src/sim/profiler.h"
#include "src/sim/run_progress.h"
#include "src/sim/time.h"

namespace centsim {

class MetricsRegistry;
class Counter;
class FlightRecorder;

// Default category for events scheduled without one.
inline constexpr const char* kDefaultEventCategory = "event";

// Point-in-time introspection of a scheduler's queue structure: where the
// pending events sit (near heap, ladder rungs, far stage), how full each
// rung's window is, and the earliest entry still queued. Taken cold (it
// walks rung buckets), rendered to JSON by the run-status layer, and
// dumped by the ensemble watchdog when a replica stalls.
struct SchedulerSnapshot {
  int64_t now_us = 0;
  // Earliest queued entry (possibly a stale/cancelled one — a lower
  // bound); == now_us when the queue is empty.
  int64_t next_event_us = 0;
  bool queue_empty = true;
  uint64_t pending = 0;    // Live (non-cancelled) events.
  uint64_t executed = 0;
  uint64_t late_schedules = 0;
  size_t heap_size = 0;      // Near-window heap entries, stale included.
  size_t staged = 0;         // Entries across rungs and the far stage.
  size_t run_remaining = 0;  // Tail of an active single-timestamp run.
  size_t far_count = 0;

  struct RungInfo {
    int64_t start_us = 0;
    int64_t end_us = 0;    // Exclusive (INT64_MAX = open).
    int64_t width_us = 0;  // Bucket width.
    size_t bucket_count = 0;
    size_t next_bucket = 0;  // First undrained bucket.
    size_t entries = 0;      // Occupancy across all buckets.
  };
  std::vector<RungInfo> rungs;  // Stack order: back() is the earliest window.
};

class Scheduler {
 public:
  // Events a model keeps in its own time-ordered store and runs through
  // RunUnqueued: their count, and a lower bound on the earliest one's time
  // (SimTime::Max() when none), read on progress publishes.
  class Unqueued {
   public:
    virtual ~Unqueued() = default;
    virtual uint64_t pending() const = 0;
    virtual SimTime Earliest() const = 0;
  };

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` (any void() callable; captures up to EventFn's inline
  // budget are stored without allocating) to run at absolute time `at`.
  // An `at` in the past is clamped to Now() (and counted — see
  // late_schedule_count()): silently running events before the clock
  // would corrupt causality. `category` labels the event for profiling;
  // it must point at storage that outlives the scheduler (use string
  // literals). The callable is constructed directly in its pool slot —
  // no intermediate EventFn move on the hot path.
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId ScheduleAt(SimTime at, F&& fn, const char* category = kDefaultEventCategory) {
    if (at < now_) {
      at = ClampLateSchedule();
    }
    const EventId id = pool_.Acquire(std::forward<F>(fn), category);
    const HeapEntry entry{at, next_seq_++, EventPool::SlotOf(id), EventPool::GenerationOf(id)};
    if (at.micros() < near_limit_) {
      HeapPush(entry);
    } else {
      StagePush(entry);
    }
    ++live_;
    return id;
  }
  // Schedules `fn` to run `delay` after Now().
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId ScheduleAfter(SimTime delay, F&& fn, const char* category = kDefaultEventCategory) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn), category);
  }

  // Attaches (or detaches, with nullptr) an execution profiler. Profiling
  // only observes; it never changes event order or simulation results.
  void SetProfiler(SchedulerProfiler* profiler) { profiler_ = profiler; }
  SchedulerProfiler* profiler() const { return profiler_; }

  // Flight recorder: when attached (and a profiler is too), each profiler
  // timed sample — 1 in SchedulerProfiler::Options::time_sample_every
  // events — also appends (category, sim time, live count) to the ring.
  void SetFlightRecorder(FlightRecorder* recorder) { recorder_ = recorder; }
  FlightRecorder* flight_recorder() const { return recorder_; }

  // Progress mailbox: when attached (and a profiler is too), each profiler
  // depth sample — 1 in queue_depth_sample_every events — also publishes
  // (sim time, next event, executed, queue depth) for the monitor thread.
  void SetProgressCell(ProgressCell* cell) { progress_ = cell; }
  ProgressCell* progress_cell() const { return progress_; }

  // While set, progress publishes add `events` to the queue's pending count
  // and next-event bound; depth samples still count this queue alone.
  void SetUnqueued(const Unqueued* events) { unqueued_ = events; }

  // Wires every hook in one call (nullptr members are skipped, so an
  // already-attached profiler survives hooks carrying none). Detach clears
  // the scheduler slot FIRST — after it returns no watchdog/status thread
  // can reach this scheduler — then the direct pointers.
  void AttachRunControl(const RunControlHooks& hooks);
  void DetachRunControl(const RunControlHooks& hooks);

  // Cold, read-only introspection of queue structure; see SchedulerSnapshot.
  SchedulerSnapshot Snapshot() const;

  // Attaches a metrics registry (nullptr detaches): past-time ScheduleAt
  // clamps are published as the `scheduler.late_schedule` counter. The
  // counter is registered lazily on the first clamp so clean runs emit
  // byte-identical metrics.jsonl with or without this instrument.
  void SetMetrics(MetricsRegistry* metrics) {
    metrics_ = metrics;
    late_schedule_metric_ = nullptr;
  }

  // Cancels a pending event. Returns false if the event already ran, was
  // already cancelled, or never existed. O(1): a generation comparison.
  bool Cancel(EventId id);

  // Runs events until the queue is empty or the next event is after
  // `horizon`. The clock finishes at min(horizon, time of last event run)
  // ... precisely: if stopped by the horizon, Now() == horizon afterwards.
  // Returns the number of events executed.
  uint64_t RunUntil(SimTime horizon);

  // Runs a single event if one is pending. Returns false if queue is empty.
  bool Step();

  // Time of the next queued event, or SimTime::Max() when nothing is
  // queued. Not const: it may move staged entries into the near heap.
  SimTime NextEventAt() { return EnsureNext() ? NextAt() : SimTime::Max(); }

  // Runs `fn` as an event that was never queued here: a model that keeps
  // one kind of event in its own time-ordered calendar drains it through
  // this, interleaved with Step. `at` is no earlier than Now() and no
  // later than NextEventAt(). The clock moves to `at`, and the event counts
  // as executed and is profiled under `category` as a queued one is; the
  // depth samples still count this queue alone.
  template <typename F>
  void RunUnqueued(SimTime at, const char* category, F&& fn) {
    now_ = at;
    ++executed_;
    if (profiler_ == nullptr) {
      fn();
      return;
    }
    const bool timed = profiler_->BeginEvent();
    const uint64_t t0 = timed ? profiler_->NowNs() : 0;
    fn();
    EndProfiledEvent(category, at, timed, t0, timed ? profiler_->NowNs() : 0);
  }

  // Checkpoint/shard barrier: runs every event at or before `barrier` and
  // leaves the clock exactly there — afterwards no callback is mid-flight
  // and every pending event is strictly later, the quiescent point that
  // snapshots are taken at and shard lanes are observed at. Drain semantics
  // match RunUntil (which already guarantees Now() == horizon when stopped
  // by it), but this is a real barrier API: it asserts quiescence on exit
  // (EarliestPending() past the barrier), so a checkpoint or progress
  // reader at the barrier sees no half-applied instant.
  uint64_t DrainToBarrier(SimTime barrier);

  // Lower bound on the earliest still-queued entry, wherever it sits
  // (active run tail, near heap, ladder rungs, far stage). Stale
  // (cancelled) entries are included, so it may read early, never late.
  // Returns SimTime::Micros(INT64_MAX) when nothing is queued. Cold-ish
  // (may scan one rung's buckets and the far stage): meant for barrier
  // points (DrainToBarrier's quiescence check, the sharded district's
  // progress row), not the per-event hot path — that is
  // NextEventLowerBound's job.
  SimTime EarliestPending() const;

  // Restore support: overwrites the clock and counters of an EMPTY
  // scheduler (asserted) so a resumed run continues the saved run's
  // accounting. The restoring engine re-arms the pending events afterwards
  // in their saved relative order; they receive fresh (monotonic) sequence
  // numbers, which preserves it.
  void RestoreClock(SimTime now, uint64_t executed, uint64_t late_schedules);

  // The sequence number the NEXT ScheduleAt call will stamp. The snapshot
  // timer table records it per pending timer to reconstruct tie order.
  uint64_t next_sequence() const { return next_seq_; }

  uint64_t pending_count() const { return live_; }
  uint64_t executed_count() const { return executed_; }
  // Number of ScheduleAt calls whose time was in the past and got clamped.
  uint64_t late_schedule_count() const { return late_schedules_; }

 private:
  // One pending (or stale) heap entry. Ordering is (at, seq): seq is the
  // global schedule sequence number, so ties in time run in schedule
  // order. `generation` detects staleness against the slot's current
  // generation when the entry is popped.
  struct HeapEntry {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;

    bool operator<(const HeapEntry& other) const {
      if (at != other.at) {
        return at < other.at;
      }
      return seq < other.seq;
    }
  };

  // One rung of the staged front-end: a window of future time cut into
  // equal-width buckets. Entries are appended in schedule (seq) order and
  // only ordered — by the 4-ary heap — when their bucket becomes current.
  // rungs_ is a stack: back() covers the earliest remaining window (it was
  // split out of a bucket of the rung below it, and spans that bucket's
  // FULL window so schedules landing anywhere in it keep routing to the
  // child after the parent's cursor has passed); an exhausted rung retires
  // to rung_pool_ with bucket capacity intact, so a scheduler cycling
  // through rungs allocates nothing in steady state.
  struct Rung {
    int64_t start = 0;  // Inclusive, micros.
    int64_t end = 0;    // Exclusive (clamped to INT64_MAX), micros.
    int64_t width = 1;  // Bucket width in micros, >= 1.
    size_t next = 0;    // First undrained bucket.
    std::vector<std::vector<HeapEntry>> buckets;
  };

  // Queues that fit kDirectLoadMax pending entries run on the bare heap;
  // above that, drains go through rungs sized for ~kBucketTargetFill
  // entries per bucket (at most kMaxBuckets buckets), and a bucket holding
  // more than kBucketLoadMax entries is split into a finer rung (unless
  // its width is already one microsecond).
  static constexpr size_t kDirectLoadMax = 512;
  static constexpr size_t kBucketTargetFill = 64;
  static constexpr size_t kBucketLoadMax = 4096;
  static constexpr size_t kMaxBuckets = 1024;

  // 4-ary heap primitives over heap_. Children of i are 4i+1..4i+4: one
  // level of a 4-ary heap spans a single cache line of 24-byte entries,
  // halving the depth (and the dependent-load chain) of a binary heap.
  void HeapPush(const HeapEntry& entry);
  void HeapPopMin();
  void SiftDown(size_t hole, HeapEntry value);

  // Staged front-end. StagePush files an entry at or past near_limit_ into
  // the rung covering its time (or far_). EnsureNext readies the next live
  // entry — the head of the sequential run if one is active, else the heap
  // top — refilling from the stage as needed; false means the queue is
  // empty. A width-one bucket (one timestamp) bypasses the heap entirely:
  // its entries are already in (time, seq) order, so it drains as a
  // sequential run.
  void StagePush(const HeapEntry& entry);
  bool EnsureNext();
  void Advance();
  void LoadIntoNear(std::vector<HeapEntry>& entries);
  // Builds a rung over the inclusive window [win_lo, win_hi] micros; every
  // entry must lie inside it.
  void PushRung(std::vector<HeapEntry>& entries, int64_t win_lo, int64_t win_hi);
  void RetireRung();
  SimTime NextAt() const {
    return run_idx_ < run_.size() ? run_[run_idx_].at : heap_.front().at;
  }
  // Cheap lower bound on the next event's time, for progress publishing:
  // the run head or heap top when present, else Now() (the next event is
  // staged and locating it would mean walking buckets — too hot a path).
  int64_t NextEventLowerBound() const {
    if (run_idx_ < run_.size()) {
      return run_[run_idx_].at.micros();
    }
    if (!heap_.empty()) {
      return heap_.front().at.micros();
    }
    return now_.micros();
  }

  // Pops and runs the top live entry. Precondition: one exists.
  void RunTop();
  // A profiled event's bookkeeping after its callback: category totals,
  // the flight recorder's timed sample, depth samples and progress.
  void EndProfiledEvent(const char* category, SimTime at, bool timed, uint64_t t0, uint64_t t1);
  // Drops stale (cancelled/superseded) entries from the top of the heap.
  void SkimStale();
  // Cold path of a past-time ScheduleAt: counts and returns Now().
  SimTime ClampLateSchedule();

  SimTime now_;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  uint64_t live_ = 0;  // Pending, non-cancelled events.
  uint64_t late_schedules_ = 0;
  MetricsRegistry* metrics_ = nullptr;
  Counter* late_schedule_metric_ = nullptr;
  SchedulerProfiler* profiler_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  ProgressCell* progress_ = nullptr;
  const Unqueued* unqueued_ = nullptr;
  EventPool pool_;
  std::vector<HeapEntry> heap_;  // The near window, in 4-ary heap order.
  // Entries at micros >= near_limit_ stage in rungs_/far_; everything
  // below it lives in heap_. INT64_MIN stages everything (fresh or fully
  // drained queue); INT64_MAX is bare-heap mode for small queues.
  int64_t near_limit_ = INT64_MIN;
  size_t staged_ = 0;  // Entries (live or stale) across rungs_ and far_.
  std::vector<Rung> rungs_;
  std::vector<Rung> rung_pool_;
  std::vector<HeapEntry> far_;  // Beyond every rung; unsorted, seq order.
  // Active sequential run: a single-timestamp bucket draining in place.
  // Runs strictly before the heap — anything scheduled while it drains
  // shares its timestamp but carries a later seq.
  std::vector<HeapEntry> run_;
  size_t run_idx_ = 0;
};

// Convenience: a repeating event. Reschedules itself every `period` until
// Stop() is called or the owning scheduler drains past the horizon. Each
// firing reuses the stored callback and (via the pool's LIFO free list)
// the same event slot — a running PeriodicEvent allocates nothing.
class PeriodicEvent {
 public:
  PeriodicEvent(Scheduler& sched, SimTime period, EventFn fn,
                const char* category = kDefaultEventCategory);
  ~PeriodicEvent();
  PeriodicEvent(const PeriodicEvent&) = delete;
  PeriodicEvent& operator=(const PeriodicEvent&) = delete;

  void Start(SimTime first_delay);
  void Stop();
  bool running() const { return running_; }

 private:
  void Fire();

  Scheduler& sched_;
  SimTime period_;
  EventFn fn_;
  const char* category_;
  EventId pending_ = kInvalidEventId;
  bool running_ = false;
};

}  // namespace centsim

#endif  // SRC_SIM_SCHEDULER_H_
