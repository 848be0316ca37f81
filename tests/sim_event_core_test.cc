// Tests for the allocation-free event core: EventFn small-buffer storage,
// EventPool slot/generation recycling, the scheduler's O(1) cancel
// semantics, and the zero-steady-state-allocation guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/alloc_probe.h"
#include "src/sim/event_pool.h"
#include "src/sim/metrics.h"
#include "src/sim/scheduler.h"

namespace centsim {
namespace {

// --- EventFn, the scheduler's InlineFn<void()> ----------------------------

TEST(EventFnTest, SmallCaptureStaysInline) {
  int hits = 0;
  EventFn fn([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(EventFnTest, CaptureAtBudgetStaysInline) {
  std::array<char, EventFn::kInlineSize> payload{};
  payload[0] = 7;
  int sink = 0;
  EventFn fn([payload, &sink]() mutable { sink = payload[0]; });
  // capture is kInlineSize + a reference — over budget by one pointer.
  EXPECT_FALSE(fn.is_inline());

  std::array<char, EventFn::kInlineSize - sizeof(void*)> small{};
  small[0] = 9;
  static int g_sink = 0;
  EventFn fits([small] { g_sink = small[0]; });
  EXPECT_TRUE(fits.is_inline());
  fits();
  EXPECT_EQ(g_sink, 9);
}

TEST(EventFnTest, OversizedCaptureFallsBackToHeapAndStillRuns) {
  std::array<uint64_t, 32> big{};  // 256 bytes, far over budget.
  big[31] = 42;
  uint64_t seen = 0;
  EventFn fn([big, &seen] { seen = big[31]; });
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(seen, 42u);
}

TEST(EventFnTest, MoveTransfersTargetAndEmptiesSource) {
  int hits = 0;
  EventFn a([&hits] { ++hits; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(EventFnTest, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  {
    EventFn fn([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // Capture keeps it alive.
    EventFn moved(std::move(fn));
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());  // Destroyed with the (moved-to) EventFn.
}

// --- EventPool -------------------------------------------------------------

TEST(EventPoolTest, PackedIdsRoundTrip) {
  const EventId id = EventPool::Pack(7, 1234);
  EXPECT_EQ(EventPool::SlotOf(id), 7u);
  EXPECT_EQ(EventPool::GenerationOf(id), 1234u);
  EXPECT_NE(id, kInvalidEventId);
}

TEST(EventPoolTest, ReleaseBumpsGenerationAndInvalidatesOldIds) {
  EventPool pool;
  const EventId first = pool.Acquire(EventFn([] {}), "t");
  EXPECT_TRUE(pool.IsLive(first));
  pool.Release(EventPool::SlotOf(first));
  EXPECT_FALSE(pool.IsLive(first));

  // LIFO recycling hands the same slot back with a fresh generation.
  const EventId second = pool.Acquire(EventFn([] {}), "t");
  EXPECT_EQ(EventPool::SlotOf(second), EventPool::SlotOf(first));
  EXPECT_NE(second, first);
  EXPECT_FALSE(pool.IsLive(first));
  EXPECT_TRUE(pool.IsLive(second));
}

TEST(EventPoolTest, GenerationStaysUniqueAcrossManyRecycles) {
  EventPool pool;
  std::set<EventId> seen;
  std::vector<EventId> history;
  for (int i = 0; i < 1 << 12; ++i) {
    const EventId id = pool.Acquire(EventFn([] {}), "t");
    EXPECT_TRUE(seen.insert(id).second) << "id reused after " << i << " recycles";
    history.push_back(id);
    pool.Release(EventPool::SlotOf(id));
  }
  // Every historical id is stale — none can false-positive as live.
  for (const EventId id : history) {
    EXPECT_FALSE(pool.IsLive(id));
  }
}

// --- Scheduler cancel semantics --------------------------------------------

TEST(SchedulerCancelTest, CancelInsideRunningEventOfItselfFails) {
  Scheduler sched;
  bool self_cancel = true;
  EventId self = kInvalidEventId;
  self = sched.ScheduleAt(SimTime::Seconds(1), [&] { self_cancel = sched.Cancel(self); });
  sched.RunUntil(SimTime::Seconds(2));
  EXPECT_FALSE(self_cancel);  // Running means no longer pending.
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(SchedulerCancelTest, CancelInsideRunningEventOfPeerPreventsIt) {
  Scheduler sched;
  bool peer_ran = false;
  bool cancel_ok = false;
  const EventId peer = sched.ScheduleAt(SimTime::Seconds(2), [&] { peer_ran = true; });
  sched.ScheduleAt(SimTime::Seconds(1), [&] { cancel_ok = sched.Cancel(peer); });
  sched.RunUntil(SimTime::Seconds(3));
  EXPECT_TRUE(cancel_ok);
  EXPECT_FALSE(peer_ran);
  EXPECT_EQ(sched.executed_count(), 1u);
}

TEST(SchedulerCancelTest, DoubleCancelFails) {
  Scheduler sched;
  const EventId id = sched.ScheduleAt(SimTime::Seconds(1), [] {});
  EXPECT_TRUE(sched.Cancel(id));
  EXPECT_FALSE(sched.Cancel(id));
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(SchedulerCancelTest, CancelAfterFireFails) {
  Scheduler sched;
  const EventId id = sched.ScheduleAt(SimTime::Seconds(1), [] {});
  sched.RunUntil(SimTime::Seconds(2));
  EXPECT_FALSE(sched.Cancel(id));
}

TEST(SchedulerCancelTest, StaleIdSurvivesSlotReuse) {
  Scheduler sched;
  // Fire one event so its slot recycles, then occupy it with a new event:
  // the stale id must not cancel the new occupant.
  const EventId old_id = sched.ScheduleAt(SimTime::Seconds(1), [] {});
  sched.RunUntil(SimTime::Seconds(2));
  bool ran = false;
  const EventId new_id = sched.ScheduleAt(SimTime::Seconds(3), [&] { ran = true; });
  EXPECT_EQ(EventPool::SlotOf(new_id), EventPool::SlotOf(old_id));  // LIFO reuse.
  EXPECT_FALSE(sched.Cancel(old_id));
  sched.RunUntil(SimTime::Seconds(4));
  EXPECT_TRUE(ran);
}

TEST(SchedulerCancelTest, CancelledEntryDoesNotBlockLaterEventsInHeap) {
  Scheduler sched;
  std::vector<int> order;
  const EventId a = sched.ScheduleAt(SimTime::Seconds(1), [&] { order.push_back(1); });
  sched.ScheduleAt(SimTime::Seconds(1), [&] { order.push_back(2); });
  sched.ScheduleAt(SimTime::Seconds(2), [&] { order.push_back(3); });
  sched.Cancel(a);
  sched.RunUntil(SimTime::Seconds(3));
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

// --- Late-schedule clamping -------------------------------------------------

TEST(SchedulerLateScheduleTest, PastTimeClampsToNowAndCounts) {
  Scheduler sched;
  SimTime ran_at;
  sched.ScheduleAt(SimTime::Seconds(10), [&] {
    // A buggy component schedules into the past: the event must run at
    // Now(), never roll the clock backwards.
    sched.ScheduleAt(SimTime::Seconds(1), [&] { ran_at = sched.Now(); });
  });
  sched.RunUntil(SimTime::Seconds(20));
  EXPECT_EQ(ran_at, SimTime::Seconds(10));
  EXPECT_EQ(sched.late_schedule_count(), 1u);
  EXPECT_EQ(sched.Now(), SimTime::Seconds(20));
}

TEST(SchedulerLateScheduleTest, ClampPublishesMetricLazily) {
  MetricsRegistry registry;
  Scheduler sched;
  sched.SetMetrics(&registry);
  sched.ScheduleAt(SimTime::Seconds(1), [] {});
  sched.RunUntil(SimTime::Seconds(2));
  // Clean run: the instrument must not pollute the registry.
  EXPECT_EQ(registry.FindCounter("scheduler.late_schedule"), nullptr);

  sched.ScheduleAt(SimTime::Seconds(1), [] {});  // Now() is 2s: late.
  const Counter* late = registry.FindCounter("scheduler.late_schedule");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->count(), 1u);
  EXPECT_EQ(sched.late_schedule_count(), 1u);
}

// --- PeriodicEvent regressions ----------------------------------------------

TEST(PeriodicEventTest, StartWhileRunningKeepsExactlyOnePending) {
  Scheduler sched;
  int fires = 0;
  PeriodicEvent tick(sched, SimTime::Hours(1), [&] { ++fires; });
  tick.Start(SimTime::Hours(1));
  EXPECT_EQ(sched.pending_count(), 1u);
  tick.Start(SimTime::Hours(2));  // Restart without Stop(): no leaked slot.
  EXPECT_EQ(sched.pending_count(), 1u);
  tick.Stop();
  EXPECT_EQ(sched.pending_count(), 0u);
  tick.Start(SimTime::Hours(1));
  EXPECT_EQ(sched.pending_count(), 1u);
  sched.RunUntil(SimTime::Hours(3) + SimTime::Minutes(1));
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sched.pending_count(), 1u);  // The next tick, nothing else.
}

TEST(PeriodicEventTest, StopInsideCallbackHaltsCleanly) {
  Scheduler sched;
  int fires = 0;
  PeriodicEvent* handle = nullptr;
  PeriodicEvent tick(sched, SimTime::Hours(1), [&] {
    if (++fires == 3) {
      handle->Stop();
    }
  });
  handle = &tick;
  tick.Start(SimTime::Hours(1));
  sched.RunUntil(SimTime::Hours(10));
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sched.pending_count(), 0u);
  EXPECT_FALSE(tick.running());
}

// --- Steady-state allocation guarantee --------------------------------------

// Self-rescheduling functor: the capture (pointer + two counters) is far
// under EventFn's inline budget, so rescheduling must never allocate.
struct SteadyTick {
  Scheduler* sched;
  uint64_t* ticks;
  uint64_t limit;
  void operator()() const {
    if (++*ticks < limit) {
      sched->ScheduleAfter(SimTime::Micros(10), *this);
    }
  }
};

TEST(SchedulerAllocTest, SteadyStateSelfReschedulingIsAllocationFree) {
  if (!AllocProbeEnabled()) {
    GTEST_SKIP() << "allocation probe disabled (sanitizer build)";
  }
  Scheduler sched;
  uint64_t ticks = 0;
  // Warm up: first schedules grow the pool and the heap arrays.
  sched.ScheduleAfter(SimTime::Micros(10), SteadyTick{&sched, &ticks, 1000});
  sched.RunUntil(SimTime::Seconds(1));
  ASSERT_EQ(ticks, 1000u);

  ticks = 0;
  AllocScope scope;
  sched.ScheduleAfter(SimTime::Micros(10), SteadyTick{&sched, &ticks, 20000});
  sched.RunUntil(SimTime::Seconds(10));
  EXPECT_EQ(ticks, 20000u);
  EXPECT_EQ(scope.delta(), 0u) << "steady-state event loop allocated";
}

TEST(SchedulerAllocTest, PeriodicEventSteadyStateIsAllocationFree) {
  if (!AllocProbeEnabled()) {
    GTEST_SKIP() << "allocation probe disabled (sanitizer build)";
  }
  Scheduler sched;
  uint64_t fires = 0;
  PeriodicEvent tick(sched, SimTime::Hours(1), [&fires] { ++fires; });
  tick.Start(SimTime::Hours(1));
  sched.RunUntil(SimTime::Hours(100));  // Warm up pool + heap.
  ASSERT_EQ(fires, 100u);

  AllocScope scope;
  sched.RunUntil(SimTime::Hours(10100));
  EXPECT_EQ(fires, 10100u);
  EXPECT_EQ(scope.delta(), 0u) << "periodic rescheduling allocated";
}

// --- Staged (ladder) front-end ---------------------------------------------
//
// Backlogs past kDirectLoadMax stage in time-bucketed rungs instead of the
// heap. These tests drive the rung paths hard and check the one property
// that matters: the fire order is exactly (time, schedule order),
// identical to a reference stable sort.

TEST(SchedulerStagedTest, LargeShuffledBacklogFiresInExactOrder) {
  Scheduler sched;
  std::mt19937 rng(20260806u);
  std::uniform_int_distribution<int64_t> micros(0, 5'000'000);
  const int n = 20000;
  std::vector<std::pair<int64_t, int>> expected;  // (at, schedule index)
  std::vector<std::pair<int64_t, int>> fired;
  fired.reserve(n);
  for (int i = 0; i < n; ++i) {
    const int64_t at = micros(rng);
    expected.emplace_back(at, i);
    sched.ScheduleAt(SimTime::Micros(at), [&fired, at, i] { fired.emplace_back(at, i); });
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sched.RunUntil(SimTime::Seconds(10));
  EXPECT_EQ(fired, expected);
}

TEST(SchedulerStagedTest, CancelsWhileStagedNeverFire) {
  Scheduler sched;
  const int n = 8000;  // Well past the direct-load threshold.
  std::vector<EventId> ids;
  uint64_t fires = 0;
  for (int i = 0; i < n; ++i) {
    ids.push_back(
        sched.ScheduleAt(SimTime::Micros(i % 977), [&fires] { ++fires; }));
  }
  for (int i = 0; i < n; i += 3) {
    EXPECT_TRUE(sched.Cancel(ids[i]));
  }
  EXPECT_EQ(sched.pending_count(), static_cast<uint64_t>(n - (n + 2) / 3));
  sched.RunUntil(SimTime::Seconds(1));
  EXPECT_EQ(fires, static_cast<uint64_t>(n - (n + 2) / 3));
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(SchedulerStagedTest, ClusteredTimestampSplitsKeepScheduleOrder) {
  // >4096 events on one timestamp inside a wide window forces the
  // bucket-split path (a finer rung) and then the single-timestamp
  // sequential run; sprinkled events elsewhere keep the outer rung wide.
  Scheduler sched;
  std::vector<int> fired;
  const int cluster = 6000;
  for (int i = 0; i < cluster; ++i) {
    sched.ScheduleAt(SimTime::Seconds(500), [&fired, i] { fired.push_back(i); });
  }
  int outliers_run = 0;
  for (int i = 0; i < 700; ++i) {
    sched.ScheduleAt(SimTime::Seconds(i * 1.37), [&outliers_run] { ++outliers_run; });
  }
  sched.RunUntil(SimTime::Seconds(1000));
  ASSERT_EQ(fired.size(), static_cast<size_t>(cluster));
  for (int i = 0; i < cluster; ++i) {
    ASSERT_EQ(fired[i], i) << "cluster fired out of schedule order at " << i;
  }
  EXPECT_EQ(outliers_run, 700);
}

TEST(SchedulerStagedTest, ScheduleIntoSplitBucketGapDuringDrain) {
  // Regression: a bucket split promotes its entries to a finer rung, and
  // that child rung must cover the parent bucket's FULL window — not just
  // the entries' span. A callback firing mid-drain schedules 50 ms ahead,
  // into the gap between the cluster's 500 us span and the parent
  // bucket's edge; with a span-sized child that entry fell into the
  // parent's already-passed bucket and was dropped, leaking staged_ and
  // hanging RunUntil.
  Scheduler sched;
  int cluster_run = 0;
  bool gap_fired = false;
  int64_t gap_fired_at = 0;
  const int64_t base = 500'000'000;  // 500 s.
  for (int i = 0; i < 5000; ++i) {
    const bool first = i == 0;
    sched.ScheduleAt(SimTime::Micros(base + i % 500), [&, first] {
      ++cluster_run;
      if (first) {
        sched.ScheduleAfter(SimTime::Millis(50), [&] {
          gap_fired = true;
          gap_fired_at = sched.Now().micros();
        });
      }
    });
  }
  // Outliers below 300 s plus a 2000 s anchor stretch the bottom rung to
  // ~23 s buckets while leaving the cluster's bucket holding ONLY the
  // 500 us cluster — so a span-sized child rung leaves almost the whole
  // parent-bucket window uncovered.
  int outliers_run = 0;
  for (int i = 0; i < 600; ++i) {
    sched.ScheduleAt(SimTime::Seconds(i * 0.5), [&outliers_run] { ++outliers_run; });
  }
  sched.ScheduleAt(SimTime::Seconds(2000), [&outliers_run] { ++outliers_run; });
  sched.RunUntil(SimTime::Seconds(2100));
  EXPECT_EQ(cluster_run, 5000);
  EXPECT_EQ(outliers_run, 601);
  EXPECT_TRUE(gap_fired) << "event scheduled into the split-bucket gap was lost";
  EXPECT_EQ(gap_fired_at, base + 50'000);
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(SchedulerStagedTest, MidDrainSchedulesLandAnywhereKeepOrder) {
  // Callbacks during a deep staged drain schedule follow-ups at random
  // offsets — into the running bucket's tail, sibling buckets, the
  // windows of retired rungs, and past every rung — exercising frontier
  // routing across splits and retirements. Every follow-up must fire, in
  // exact (time, schedule order).
  Scheduler sched;
  std::mt19937 rng(77u);
  std::uniform_int_distribution<int64_t> offset(0, 200'000'000);  // Up to 200 s ahead.
  std::vector<std::pair<int64_t, int>> fired;  // (fire time, schedule tag)
  int next_tag = 0;
  const int base_events = 6000;
  for (int i = 0; i < base_events; ++i) {
    const int tag = next_tag++;
    sched.ScheduleAt(SimTime::Micros((i * 100'003) % 600'000'000), [&, tag] {
      fired.emplace_back(sched.Now().micros(), tag);
      if (tag < base_events && tag % 5 == 0) {
        const int echo = next_tag++;
        sched.ScheduleAfter(SimTime::Micros(offset(rng)), [&, echo] {
          fired.emplace_back(sched.Now().micros(), echo);
        });
      }
    });
  }
  sched.RunUntil(SimTime::Seconds(2000));
  ASSERT_EQ(fired.size(), static_cast<size_t>(base_events + base_events / 5));
  EXPECT_EQ(sched.pending_count(), 0u);
  for (size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].first, fired[i].first) << "time went backwards at " << i;
    if (fired[i - 1].first == fired[i].first) {
      ASSERT_LT(fired[i - 1].second, fired[i].second) << "tie broke schedule order at " << i;
    }
  }
}

TEST(SchedulerStagedTest, CallbacksScheduleAcrossBucketsDuringDrain) {
  // While a staged backlog drains, callbacks keep scheduling both at the
  // running timestamp (same bucket window, must run this pass, after all
  // earlier-scheduled events) and far beyond the current rung.
  Scheduler sched;
  std::vector<std::pair<int64_t, int>> fired;
  int next_tag = 2000;
  for (int i = 0; i < 2000; ++i) {
    const int64_t at = (i % 631) * 1000;
    sched.ScheduleAt(SimTime::Micros(at), [&, at, i] {
      fired.emplace_back(at, i);
      if (i % 50 == 0) {
        const int echo = next_tag++;
        sched.ScheduleAfter(SimTime(), [&fired, &sched, echo] {
          fired.emplace_back(sched.Now().micros(), echo);
        });
        const int far = next_tag++;
        sched.ScheduleAfter(SimTime::Hours(2), [&fired, &sched, far] {
          fired.emplace_back(sched.Now().micros(), far);
        });
      }
    });
  }
  sched.RunUntil(SimTime::Hours(3));
  ASSERT_EQ(fired.size(), 2000u + 2 * 40u);
  // The exact (time, seq) contract, checked pairwise: time never goes
  // backwards, and ties fire in schedule order (tags only grow).
  for (size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].first, fired[i].first) << "time went backwards at " << i;
    if (fired[i - 1].first == fired[i].first) {
      ASSERT_LT(fired[i - 1].second, fired[i].second)
          << "tie broke schedule order at " << i;
    }
  }
}

}  // namespace
}  // namespace centsim
