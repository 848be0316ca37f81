#include "src/sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/sim/flight_recorder.h"
#include "src/sim/metrics.h"

namespace centsim {

// A past-time schedule must not corrupt heap order or run the clock
// backwards: clamp to Now() and surface the bug as a metric.
SimTime Scheduler::ClampLateSchedule() {
  ++late_schedules_;
  if (late_schedule_metric_ == nullptr && metrics_ != nullptr) {
    late_schedule_metric_ = metrics_->GetCounter("scheduler.late_schedule");
  }
  MetricInc(late_schedule_metric_);
  return now_;
}

bool Scheduler::Cancel(EventId id) {
  if (!pool_.IsLive(id)) {
    return false;  // Already ran, already cancelled, or never existed.
  }
  // The heap entry stays; popping it later sees the bumped generation.
  pool_.Release(EventPool::SlotOf(id));
  --live_;
  return true;
}

void Scheduler::HeapPush(const HeapEntry& entry) {
  heap_.push_back(entry);
  size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    if (!(entry < heap_[parent])) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void Scheduler::SiftDown(size_t hole, HeapEntry value) {
  const size_t size = heap_.size();
  while (true) {
    const size_t first_child = hole * 4 + 1;
    if (first_child >= size) {
      break;
    }
    const size_t last_child = first_child + 4 < size ? first_child + 4 : size;
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c] < heap_[best]) {
        best = c;
      }
    }
    if (!(heap_[best] < value)) {
      break;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = value;
}

void Scheduler::HeapPopMin() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0, last);
  }
}

void Scheduler::SkimStale() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (pool_.generation(top.slot) == top.generation) {
      return;  // Live.
    }
    HeapPopMin();
  }
}

void Scheduler::StagePush(const HeapEntry& entry) {
  const int64_t at = entry.at.micros();
  // back() covers the earliest remaining window, each rung below it a
  // later one, so the first rung whose end is past `at` is the right one.
  for (size_t i = rungs_.size(); i-- > 0;) {
    Rung& r = rungs_[i];
    if (at < r.end) {
      r.buckets[static_cast<size_t>((at - r.start) / r.width)].push_back(entry);
      ++staged_;
      return;
    }
  }
  far_.push_back(entry);
  ++staged_;
}

// Moves a batch of staged entries into the (empty) near heap, dropping
// entries cancelled while they were staged. Firing an entry touches its
// pool slot and generation lines, scattered across the pool; prefetching
// them now, a bucket at a time, overlaps those misses so the pop loop
// finds every line warm.
void Scheduler::LoadIntoNear(std::vector<HeapEntry>& entries) {
  for (const HeapEntry& e : entries) {
    if (pool_.generation(e.slot) == e.generation) {
      pool_.PrefetchSlot(e.slot);
      HeapPush(e);
    }
  }
  staged_ -= entries.size();
  entries.clear();
}

// Distributes `entries` into a new finest rung covering the inclusive
// window [win_lo, win_hi] (every entry's time lies inside it): enough
// buckets that each holds roughly kBucketTargetFill entries (the near
// heap stays small and cheap to pop), but no more than kMaxBuckets
// (bounds per-bucket bookkeeping for sparse windows). The rung spans the
// whole window, never just the entries' min/max: StagePush routes by
// rung windows, and a rung split out of a parent bucket must accept
// everything the parent's (already advanced) cursor can no longer take —
// an uncovered tail would send later schedules into a drained parent
// bucket, where they would be silently dropped.
void Scheduler::PushRung(std::vector<HeapEntry>& entries, int64_t win_lo, int64_t win_hi) {
  const uint64_t span = static_cast<uint64_t>(win_hi - win_lo);
  size_t target = entries.size() / kBucketTargetFill;
  target = target < 1 ? 1 : (target > kMaxBuckets ? kMaxBuckets : target);
  const int64_t width = static_cast<int64_t>(span / target + 1);
  const size_t nbuckets = static_cast<size_t>(span / static_cast<uint64_t>(width)) + 1;
  Rung r;
  if (!rung_pool_.empty()) {
    r = std::move(rung_pool_.back());
    rung_pool_.pop_back();
  }
  r.start = win_lo;
  r.width = width;
  r.next = 0;
  // Exclusive end == the window's exact edge, so the frontier (near_limit_
  // clamps to r.end) and StagePush routing agree bucket-for-bucket with
  // the rung below. A window abutting the time axis' top stays inclusive.
  r.end = win_hi == INT64_MAX ? INT64_MAX : win_hi + 1;
  r.buckets.resize(nbuckets);
  for (const HeapEntry& e : entries) {
    if (pool_.generation(e.slot) == e.generation) {
      r.buckets[static_cast<size_t>((e.at.micros() - win_lo) / width)].push_back(e);
    } else {
      --staged_;  // Cancelled while staged: drop it here.
    }
  }
  entries.clear();
  rungs_.push_back(std::move(r));
}

void Scheduler::RetireRung() {
  Rung r = std::move(rungs_.back());
  rungs_.pop_back();
  // The whole window is drained (trailing buckets may have been skipped
  // while empty): advance the frontier to its edge so a later schedule
  // into the tail goes to the heap, not into a dropped bucket.
  near_limit_ = r.end;
  for (auto& b : r.buckets) {
    b.clear();  // Keep capacity: the pool exists to recycle it.
  }
  r.next = 0;
  if (rung_pool_.size() < 4) {
    rung_pool_.push_back(std::move(r));
  }
}

// Refills the empty near heap with the next batch of staged entries.
void Scheduler::Advance() {
  while (!rungs_.empty()) {
    Rung& r = rungs_.back();
    while (r.next < r.buckets.size() && r.buckets[r.next].empty()) {
      ++r.next;
    }
    if (r.next == r.buckets.size()) {
      RetireRung();
      continue;
    }
    std::vector<HeapEntry>& bucket = r.buckets[r.next];
    // This bucket's window, [b_lo, b_hi] inclusive, clipped to the rung's
    // own edge (__int128: the unclipped end can overflow near the top of
    // the time axis).
    const int64_t b_lo = r.start + static_cast<int64_t>(r.next) * r.width;
    const __int128 b_end = static_cast<__int128>(b_lo) + r.width;
    const int64_t r_hi = r.end == INT64_MAX ? INT64_MAX : r.end - 1;
    const int64_t b_hi =
        b_end - 1 < static_cast<__int128>(r_hi) ? static_cast<int64_t>(b_end - 1) : r_hi;
    if (bucket.size() > kBucketLoadMax && r.width > 1) {
      // Too many entries to heap at once and still splittable: promote the
      // bucket to a finer rung covering this bucket's FULL window, not
      // just the entries' span. The parent's cursor moves past the bucket,
      // so the child must keep accepting schedules anywhere in its window
      // for StagePush's frontier-routing invariant to hold.
      std::vector<HeapEntry> items = std::move(bucket);
      bucket = std::vector<HeapEntry>();
      ++r.next;
      PushRung(items, b_lo, b_hi);  // Entries stay staged; PushRung drops cancelled ones.
      continue;
    }
    // Frontier moves to the bucket's edge. Never past r.end: beyond it the
    // rung below still holds staged entries, and sending later schedules
    // to the heap early would let them overtake those.
    near_limit_ = b_hi == INT64_MAX ? INT64_MAX : b_hi + 1;
    ++r.next;
    if (r.width == 1) {
      // Single-timestamp bucket: already in (time, seq) order, drain it
      // sequentially and keep the heap out of the picture. The swap passes
      // run_'s spent capacity back into the rung for its next cycle.
      std::swap(run_, bucket);
      staged_ -= run_.size();
      for (const HeapEntry& e : run_) {
        pool_.PrefetchSlot(e.slot);
      }
      return;
    }
    LoadIntoNear(bucket);
    return;
  }
  if (far_.size() <= kDirectLoadMax) {
    // Small queue: run on the bare heap. INT64_MAX routes every future
    // schedule straight to the heap until the queue fully drains.
    near_limit_ = INT64_MAX;
    LoadIntoNear(far_);
    return;
  }
  // Bottom rung: nothing is staged beyond far_, so its window is just the
  // entries' span — anything later routes back into far_.
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  for (const HeapEntry& e : far_) {
    const int64_t at = e.at.micros();
    lo = at < lo ? at : lo;
    hi = at > hi ? at : hi;
  }
  PushRung(far_, lo, hi);
}

bool Scheduler::EnsureNext() {
  for (;;) {
    // An active sequential run goes first: the heap only holds entries
    // scheduled after the run's timestamp (same time, later seq).
    while (run_idx_ < run_.size()) {
      const HeapEntry& e = run_[run_idx_];
      if (pool_.generation(e.slot) == e.generation) {
        return true;
      }
      ++run_idx_;  // Cancelled while staged or while the run drained.
    }
    if (!run_.empty()) {
      run_.clear();
      run_idx_ = 0;
    }
    SkimStale();
    if (!heap_.empty()) {
      return true;
    }
    if (staged_ == 0) {
      near_limit_ = INT64_MIN;  // Fully drained: next wave picks its mode.
      return false;
    }
    Advance();
  }
}

void Scheduler::RunTop() {
  HeapEntry top;
  if (run_idx_ < run_.size()) {
    top = run_[run_idx_++];
  } else {
    top = heap_.front();
    HeapPopMin();
  }
  now_ = top.at;
  // The callback runs in place in its (address-stable) slot. BeginFire
  // bumps the generation first so the running event is no longer pending:
  // a Cancel of its own id reports false, and rescheduling from inside
  // the callback can never overwrite the executing closure (the slot
  // rejoins the free list only in FinishFire).
  EventPool::Slot& slot = pool_.at(top.slot);
  const char* category = slot.category;
  pool_.BeginFire(top.slot);
  --live_;
  ++executed_;
  if (profiler_ == nullptr) {
    slot.fn();
    pool_.FinishFire(top.slot);
    return;
  }
  const bool timed = profiler_->BeginEvent();
  const uint64_t t0 = timed ? profiler_->NowNs() : 0;
  slot.fn();
  const uint64_t t1 = timed ? profiler_->NowNs() : 0;
  pool_.FinishFire(top.slot);
  EndProfiledEvent(category != nullptr ? category : kDefaultEventCategory, top.at, timed, t0, t1);
}

void Scheduler::EndProfiledEvent(const char* category, SimTime at, bool timed, uint64_t t0,
                                 uint64_t t1) {
  profiler_->EndEvent(category, at, timed, t0, t1);
  // Run-control hooks ride the profiler's two sampling countdowns, so the
  // unsampled hot path stays exactly as before: the flight recorder logs
  // the 1-in-time_sample_every events already being wall-timed, and the
  // progress mailbox publishes on the rarer depth samples.
  if (timed && recorder_ != nullptr) {
    // Reuse the profiler's post-event clock reading (absolute steady ns)
    // instead of paying a third read; re-based onto the recorder's epoch.
    recorder_->RecordAt(category, at, live_, t1 - recorder_->epoch_ns());
  }
  if (profiler_->DepthSampleDue()) {
    const uint64_t entries = heap_.size() + staged_ + (run_.size() - run_idx_);
    profiler_->RecordDepth(at, pending_count(), entries);
    if (progress_ != nullptr) {
      int64_t next = NextEventLowerBound();
      uint64_t unqueued = 0;
      if (unqueued_ != nullptr) {
        unqueued = unqueued_->pending();
        next = std::min(next, unqueued_->Earliest().micros());
      }
      progress_->Publish(now_.micros(), next, executed_, live_ + unqueued, entries + unqueued);
    }
  }
}

void Scheduler::AttachRunControl(const RunControlHooks& hooks) {
  if (hooks.profiler != nullptr) {
    profiler_ = hooks.profiler;
  }
  if (hooks.recorder != nullptr) {
    recorder_ = hooks.recorder;
  }
  if (hooks.progress != nullptr) {
    progress_ = hooks.progress;
  }
  if (hooks.scheduler_slot != nullptr) {
    hooks.scheduler_slot->Set(this);
  }
}

void Scheduler::DetachRunControl(const RunControlHooks& hooks) {
  // Slot first: once cleared, no monitor thread can reach this scheduler,
  // so the plain-pointer resets below race with nothing.
  if (hooks.scheduler_slot != nullptr) {
    hooks.scheduler_slot->Set(nullptr);
  }
  if (hooks.profiler != nullptr && profiler_ == hooks.profiler) {
    profiler_ = nullptr;
  }
  if (hooks.recorder != nullptr && recorder_ == hooks.recorder) {
    recorder_ = nullptr;
  }
  if (hooks.progress != nullptr && progress_ == hooks.progress) {
    progress_ = nullptr;
  }
}

SchedulerSnapshot Scheduler::Snapshot() const {
  SchedulerSnapshot s;
  s.now_us = now_.micros();
  s.pending = live_;
  s.executed = executed_;
  s.late_schedules = late_schedules_;
  s.heap_size = heap_.size();
  s.staged = staged_;
  s.run_remaining = run_.size() - run_idx_;
  s.far_count = far_.size();
  s.queue_empty = live_ == 0;
  // Earliest queued entry: the run head / heap top when present, else the
  // minimum across staged entries. Stale (cancelled) entries are not
  // filtered — this is a lower bound, and a diagnostic one.
  int64_t next = INT64_MAX;
  bool have = false;
  if (run_idx_ < run_.size()) {
    next = run_[run_idx_].at.micros();
    have = true;
  } else if (!heap_.empty()) {
    next = heap_.front().at.micros();
    have = true;
  }
  s.rungs.reserve(rungs_.size());
  for (const Rung& r : rungs_) {
    SchedulerSnapshot::RungInfo info;
    info.start_us = r.start;
    info.end_us = r.end;
    info.width_us = r.width;
    info.bucket_count = r.buckets.size();
    info.next_bucket = r.next;
    for (size_t b = 0; b < r.buckets.size(); ++b) {
      info.entries += r.buckets[b].size();
      if (!have) {
        for (const HeapEntry& e : r.buckets[b]) {
          next = e.at.micros() < next ? e.at.micros() : next;
        }
      }
    }
    s.rungs.push_back(info);
  }
  if (!have) {
    for (const HeapEntry& e : far_) {
      next = e.at.micros() < next ? e.at.micros() : next;
    }
    have = next != INT64_MAX;
  }
  s.next_event_us = have ? next : s.now_us;
  return s;
}

bool Scheduler::Step() {
  if (!EnsureNext()) {
    return false;
  }
  RunTop();
  return true;
}

uint64_t Scheduler::RunUntil(SimTime horizon) {
  uint64_t ran = 0;
  while (EnsureNext() && !(horizon < NextAt())) {
    RunTop();
    ++ran;
  }
  if (now_ < horizon) {
    now_ = horizon;
  }
  return ran;
}

SimTime Scheduler::EarliestPending() const {
  // An active run head or heap top dominates everything staged: staged
  // entries all sit at or past near_limit_, heap entries below it, and a
  // run's single timestamp precedes the heap it was split from.
  if (run_idx_ < run_.size()) {
    return run_[run_idx_].at;
  }
  if (!heap_.empty()) {
    return heap_.front().at;
  }
  int64_t next = INT64_MAX;
  // rungs_ is a stack — back() covers the earliest remaining window, and a
  // rung's buckets partition its window in ascending time — so the first
  // non-empty bucket of the topmost occupied rung bounds the staged
  // minimum. Only that one bucket needs scanning (entries within a bucket
  // are unsorted, in seq order).
  for (size_t i = rungs_.size(); i-- > 0;) {
    const Rung& r = rungs_[i];
    for (size_t b = r.next; b < r.buckets.size(); ++b) {
      if (r.buckets[b].empty()) {
        continue;
      }
      for (const HeapEntry& e : r.buckets[b]) {
        next = e.at.micros() < next ? e.at.micros() : next;
      }
      return SimTime::Micros(next);
    }
  }
  for (const HeapEntry& e : far_) {
    next = e.at.micros() < next ? e.at.micros() : next;
  }
  return SimTime::Micros(next);
}

uint64_t Scheduler::DrainToBarrier(SimTime barrier) {
  const uint64_t ran = RunUntil(barrier);
  // Quiescence on exit: the clock sits exactly on the barrier and nothing
  // queued is at or before it. The drain loop physically removes every
  // entry — live or stale — at or before the barrier (stale heap tops are
  // skimmed, cancelled staged entries dropped at load), so the
  // stale-inclusive probe agrees.
  assert(now_.micros() == barrier.micros());
  assert(barrier < EarliestPending());
  return ran;
}

void Scheduler::RestoreClock(SimTime now, uint64_t executed, uint64_t late_schedules) {
  // Restore targets a fresh scheduler: re-arming into a queue that still
  // holds events would interleave two runs' sequence spaces.
  assert(live_ == 0);
  now_ = now;
  executed_ = executed;
  late_schedules_ = late_schedules;
}

PeriodicEvent::PeriodicEvent(Scheduler& sched, SimTime period, EventFn fn, const char* category)
    : sched_(sched), period_(period), fn_(std::move(fn)), category_(category) {}

PeriodicEvent::~PeriodicEvent() { Stop(); }

void PeriodicEvent::Start(SimTime first_delay) {
  Stop();
  running_ = true;
  pending_ = sched_.ScheduleAfter(first_delay, [this] { Fire(); }, category_);
}

void PeriodicEvent::Stop() {
  if (pending_ != kInvalidEventId) {
    sched_.Cancel(pending_);
    pending_ = kInvalidEventId;
  }
  running_ = false;
}

void PeriodicEvent::Fire() {
  // The firing event's slot was just released; the pool's LIFO free list
  // hands it straight back, so a periodic event ticks in place with zero
  // allocations (the [this] capture is far under the inline budget).
  pending_ = sched_.ScheduleAfter(period_, [this] { Fire(); }, category_);
  fn_();
}

}  // namespace centsim
