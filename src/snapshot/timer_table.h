// Typed pending-timer table: the event-reconstruction registry snapshots
// are built on.
//
// EventFn closures cannot be serialized, so checkpoints do not pickle the
// scheduler queue. A driver routes each DOMAIN timer its state does not
// already determine (the serial district's gateway transitions; zone
// visits follow from the config, unit failures are fleet deadlines)
// through this table, which keeps one plain-data TimerRecord — a tag
// naming the timer's type plus the small integers/doubles needed to
// rebuild its closure — per pending event. At a quiescent barrier Save()
// returns the live records, and Restore() hands each one to the re-arm
// callback its layer registered for that tag, which re-creates the closure
// from domain state and schedules it again.
//
// Determinism contract: records are saved sorted by (at, original seq) and
// re-armed in that order, so the fresh monotonically-increasing sequence
// numbers preserve the exact relative order of every pending pair — and
// every event scheduled after restore gets a later sequence number than
// all re-armed ones, exactly as post-barrier schedules did in the
// original run. Same-timestamp ties therefore fire in the same order as
// the straight-through run, which is what makes restored runs
// bit-identical.
//
// Record-keeping costs a few cache lines per timer lifecycle (the record,
// the slot→ticket note, and the free list), which is measurable in
// timer-heavy drivers. Runs that will never save a checkpoint don't need
// records at all, so the table can be constructed with track=false: then
// Schedule() forwards closures straight to the scheduler with zero
// bookkeeping and the routed driver runs at exactly the unrouted speed.
// Tracking never changes event order, so tracked and untracked runs are
// bit-identical. When tracking, the table allocates only when the
// scheduler's pool grows, so routed drivers keep their steady-state
// allocation-free property.

#ifndef SRC_SNAPSHOT_TIMER_TABLE_H_
#define SRC_SNAPSHOT_TIMER_TABLE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/scheduler.h"
#include "src/sim/time.h"
#include "src/snapshot/bytes.h"

namespace centsim {

// Everything needed to rebuild one pending timer's closure: its type tag
// plus three scratch operands whose meaning the tag's re-arm fn defines
// (zone ids, device slots, a sampled lifetime...).
struct TimerRecord {
  uint64_t tag = 0;
  int64_t at_us = 0;   // Absolute fire time.
  uint64_t seq = 0;    // Scheduler sequence at arm time (ordering only).
  uint64_t a = 0;
  uint64_t b = 0;
  double x = 0.0;
};

class TimerTable {
 public:
  // `track` = false skips all record bookkeeping (see file comment): for
  // runs that will never Save(). Restore() through registered re-arm fns
  // still works either way — re-armed closures just aren't re-recorded.
  explicit TimerTable(Scheduler& sched, bool track = true)
      : sched_(sched), track_(track) {}
  TimerTable(const TimerTable&) = delete;
  TimerTable& operator=(const TimerTable&) = delete;

  // Registers the re-arm callback for `tag`: given a saved record, it must
  // schedule an equivalent timer (through this table) at record.at_us.
  // Register every tag BEFORE Restore(); replacing a tag is allowed.
  using RearmFn = std::function<void(const TimerRecord&)>;
  void Register(uint64_t tag, RearmFn fn);

  // Schedules `fn` at absolute time `at` and records (tag, a, b, x) for
  // reconstruction. The wrapper releases the record when the timer fires,
  // so Save() only ever sees genuinely pending timers. `category` labels
  // the event for profiling, as in Scheduler::ScheduleAt.
  template <typename F>
  EventId Schedule(SimTime at, uint64_t tag, uint64_t a, uint64_t b, double x, F&& fn,
                   const char* category = kDefaultEventCategory) {
    if (!track_) {
      return sched_.ScheduleAt(at, std::forward<F>(fn), category);
    }
    const uint32_t ticket = AcquireTicket();
    Entry& e = entries_[ticket];
    e.rec.tag = tag;
    e.rec.at_us = at.micros();
    e.rec.seq = sched_.next_sequence();
    e.rec.a = a;
    e.rec.b = b;
    e.rec.x = x;
    e.live = true;
    const EventId id =
        sched_.ScheduleAt(at,
                          [this, ticket, f = std::forward<F>(fn)]() mutable {
                            ReleaseTicket(ticket);
                            f();
                          },
                          category);
    NoteEvent(id, ticket);
    return id;
  }

  // Cancels a table-scheduled timer and releases its record. Returns false
  // if the event already fired or was cancelled (record already released).
  bool Cancel(EventId id);

  // Live records sorted by (at, seq) — the re-arm order.
  std::vector<TimerRecord> Save() const;

  // Re-arms every record through its tag's registered callback, in the
  // given order. Records carrying an unregistered tag are counted (return
  // value) and skipped — a driver asserting the count is zero turns a
  // missing registration into a clean failure instead of silent state loss.
  size_t Restore(const std::vector<TimerRecord>& records);

  size_t live_count() const { return live_; }
  bool tracking() const { return track_; }

  // Codec helpers for the snapshot chunk.
  static void Encode(const std::vector<TimerRecord>& records, ByteWriter& w);
  static std::vector<TimerRecord> Decode(ByteReader& r);

 private:
  struct Entry {
    TimerRecord rec;
    bool live = false;
  };

  uint32_t AcquireTicket();
  void ReleaseTicket(uint32_t ticket);
  // Remembers which ticket the event occupying `id`'s pool slot carries.
  // Valid for exactly the lifetime of `id` (pool slots recycle, but a
  // recycled slot's id dies with it, and Cancel consults the note only
  // after Scheduler::Cancel confirmed `id` was still live).
  void NoteEvent(EventId id, uint32_t ticket);

  Scheduler& sched_;
  const bool track_;
  std::vector<std::pair<uint64_t, RearmFn>> rearm_;  // Small; linear scan.
  std::vector<Entry> entries_;
  std::vector<uint32_t> free_;
  std::vector<uint32_t> ticket_by_slot_;  // Scheduler pool slot -> ticket+1.
  size_t live_ = 0;
};

}  // namespace centsim

#endif  // SRC_SNAPSHOT_TIMER_TABLE_H_
