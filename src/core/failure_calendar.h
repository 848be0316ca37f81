// A fleet's pending unit failures, kept outside the event queue and
// drained between its events: the detailed district's (DistrictModel, its
// serial engine and every shard lane) and the detailed century's
// (DetailedCentury). A failure needs no closure: each is one 16-byte
// entry, its time, its slot and the unit generation it was armed for.
//
// A checkpoint holds no entry: an alive slot's DeviceFleet::deadline is its
// pending failure, stamped only when a checkpoint is cut, never per arm.
//
// An entry runs after every scheduler event at or before its microsecond,
// so a zone visit sees a site whose failure falls on the visit's
// microsecond still alive, as in one queue where every visit is armed
// before any failure. No other tie can show in a result: a gateway
// transition and a failure at one instant commute under the exact
// integrals, and two failures at one instant run in slot order.
//
// Nothing is cancelled. A unit that leaves its slot before failing (a
// proactive refresh) is succeeded by a later generation, and every entry
// armed for an earlier one is skipped: it never runs, never counts as an
// event and is never handed to a checkpoint.

#ifndef SRC_CORE_FAILURE_CALENDAR_H_
#define SRC_CORE_FAILURE_CALENDAR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/fleet.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace centsim {

// Entries sit in fixed-width time buckets up to the horizon's, plus one
// last bucket for every failure after those, which a run to the horizon
// never reaches: they wait there unsorted, for checkpoints. A bucket is
// sorted when the run reaches it, by time and then slot. A failure armed
// after that into the current bucket, or into one the run has passed,
// joins the current bucket, whose remainder is sorted again before its
// next entry is read.
class FailureCalendar final : public Scheduler::Unqueued {
 public:
  struct Entry {
    int64_t at_us;
    uint32_t slot;
    uint32_t generation;  // The unit generation the failure was armed for.
  };

  // The calendar of `fleet`'s units over a run to `horizon`.
  FailureCalendar(DeviceFleet& fleet, SimTime horizon);

  // Arms the failure of the unit now in `slot` at `at`, no earlier than the
  // clock.
  void Arm(SimTime at, uint32_t slot) {
    size_t b = std::min(static_cast<size_t>(at.micros() / kBucketUs), buckets_.size() - 1);
    if (b <= cur_) {
      b = cur_;
      sorted_ = false;
    }
    buckets_[b].push_back({at.micros(), slot, fleet_.unit_generation(slot)});
  }

  // Runs every scheduler event and armed failure at or before `limit` in
  // time order and leaves the clock at `limit`, the quiescent point of
  // Scheduler::DrainToBarrier. A failure whose unit is still in its slot
  // runs as fail(slot, at), an unqueued event counted and profiled under
  // `category`; it arms nothing on the scheduler. Meanwhile the fleet's
  // lifecycle lines and prefetch(slot)'s of the failure 16 entries later
  // load, so that consecutive random misses overlap, and the scheduler's
  // progress rows count the calendar with its queue.
  template <typename Prefetch, typename Fail>
  void RunTo(Scheduler& sched, SimTime limit, const char* category, const Prefetch& prefetch,
             const Fail& fail) {
    sched.SetUnqueued(this);
    // Only a Step moves the scheduler's head.
    SimTime next_event = sched.NextEventAt();
    for (;;) {
      const Entry* failure = Next(limit);
      if (next_event <= limit && (failure == nullptr || next_event.micros() <= failure->at_us)) {
        sched.Step();
        next_event = sched.NextEventAt();
        continue;
      }
      if (failure == nullptr) {
        break;
      }
      if (const Entry* ahead = Ahead(kPrefetchAhead)) {
        fleet_.PrefetchLifecycle(ahead->slot);
        prefetch(ahead->slot);
      }
      const Entry entry = *failure;
      ++pos_;
      if (entry.generation == fleet_.unit_generation(entry.slot)) {
        const SimTime at = SimTime::Micros(entry.at_us);
        sched.RunUnqueued(at, category, [&fail, &entry, at] { fail(entry.slot, at); });
      }
    }
    sched.DrainToBarrier(limit);
    sched.SetUnqueued(nullptr);
  }

  // Writes each pending failure of a unit still in its slot, past-horizon
  // ones included, into the slot's deadline (every alive unit has one), and
  // arms each alive slot's deadline back, for a checkpoint and a restore.
  void StampDeadlines();
  void ArmDeadlines();

  // The entries not yet drained and the earliest one's time (SimTime::Max()
  // when none), past-horizon ones and those of units that have left their
  // slot included: what a progress row counts beside the scheduler's queue,
  // the serial run's through Scheduler::Unqueued and a shard lane's at each
  // barrier. Cold: they scan buckets.
  uint64_t pending() const override;
  SimTime Earliest() const override;

 private:
  static constexpr int64_t kBucketUs = 14LL * 24 * 3600 * 1000000;  // 14 days a bucket.
  static constexpr size_t kPrefetchAhead = 16;

  // The earliest pending entry if it is at or before `limit`, else null.
  // Valid until the next Arm or drained entry.
  const Entry* Next(SimTime limit) {
    const std::vector<Entry>& bucket = buckets_[cur_];
    if (sorted_ && pos_ < bucket.size()) {
      return bucket[pos_].at_us <= limit.micros() ? &bucket[pos_] : nullptr;
    }
    return NextInLaterBucket(limit);
  }

  // The entry `k` places after Next's, when the current bucket holds it.
  const Entry* Ahead(size_t k) const {
    const std::vector<Entry>& bucket = buckets_[cur_];
    return pos_ + k < bucket.size() ? &bucket[pos_ + k] : nullptr;
  }

  // Next's slow path: sorts the current bucket, or moves to the next
  // non-empty bucket that starts at or before `limit`.
  const Entry* NextInLaterBucket(SimTime limit);

  DeviceFleet& fleet_;
  std::vector<std::vector<Entry>> buckets_;
  size_t cur_ = 0;       // The bucket the run is in; earlier ones are empty.
  size_t pos_ = 0;       // Its first pending entry.
  bool sorted_ = false;  // Its entries from pos_ on are in order.
};

}  // namespace centsim

#endif  // SRC_CORE_FAILURE_CALENDAR_H_
