// The Scheduler's barrier API, which every drain to a barrier ends in
// (the failure calendar's RunTo, the sampling controller's windows) and
// the sharded district's progress row reads: quiescence at a barrier, an
// inclusive drain that leaves the clock on it, and an earliest-pending
// bound that is never late. The sharded district's barrier loop is tested
// through RunShardedDistrictScenario (tests/core_shard_test.cc).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace centsim {
namespace {

constexpr int64_t kInfUs = std::numeric_limits<int64_t>::max();

// --- Scheduler barrier API ------------------------------------------------

TEST(SchedulerBarrierTest, EarliestPendingEmptyIsSentinel) {
  Scheduler sched;
  EXPECT_EQ(sched.EarliestPending().micros(), kInfUs);
}

TEST(SchedulerBarrierTest, DrainToBarrierRunsInclusiveAndLeavesClockAtBarrier) {
  Scheduler sched;
  std::vector<int> ran;
  sched.ScheduleAt(SimTime::Micros(10), [&] { ran.push_back(10); });
  sched.ScheduleAt(SimTime::Micros(20), [&] { ran.push_back(20); });
  sched.ScheduleAt(SimTime::Micros(21), [&] { ran.push_back(21); });

  const uint64_t n = sched.DrainToBarrier(SimTime::Micros(20));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(ran, (std::vector<int>{10, 20}));  // Inclusive of the barrier.
  EXPECT_EQ(sched.Now().micros(), 20);
  // Quiescent: everything still queued is strictly later.
  EXPECT_EQ(sched.EarliestPending().micros(), 21);

  sched.DrainToBarrier(SimTime::Micros(100));
  EXPECT_EQ(ran.size(), 3u);
  EXPECT_EQ(sched.Now().micros(), 100);
  EXPECT_EQ(sched.EarliestPending().micros(), kInfUs);
}

TEST(SchedulerBarrierTest, EarliestPendingSeesHeapLadderAndFarOccupancy) {
  Scheduler sched;
  // Push well past kDirectLoadMax (512) so the staged front-end engages:
  // entries land in ladder rungs and the far stage, not just the heap.
  constexpr int kEvents = 4096;
  int ran = 0;
  for (int i = 0; i < kEvents; ++i) {
    // Spread over ~11 years so the far stage is exercised too.
    sched.ScheduleAt(SimTime::Hours(1 + 24ll * i), [&] { ++ran; });
  }
  EXPECT_EQ(sched.EarliestPending(), SimTime::Hours(1));

  // Drain half; the probe must track the frontier wherever it sits.
  const SimTime mid = SimTime::Hours(1 + 24ll * (kEvents / 2));
  sched.DrainToBarrier(mid);
  EXPECT_EQ(ran, kEvents / 2 + 1);
  EXPECT_GT(sched.EarliestPending(), mid);
  EXPECT_LT(sched.EarliestPending().micros(), kInfUs);

  sched.DrainToBarrier(SimTime::Hours(1 + 24ll * kEvents));
  EXPECT_EQ(ran, kEvents);
  EXPECT_EQ(sched.EarliestPending().micros(), kInfUs);
}

TEST(SchedulerBarrierTest, StaleCancelledEntryPinsBoundEarlyNeverLate) {
  Scheduler sched;
  int ran = 0;
  const EventId id = sched.ScheduleAt(SimTime::Micros(50), [&] { ++ran; });
  sched.ScheduleAt(SimTime::Micros(80), [&] { ++ran; });
  ASSERT_TRUE(sched.Cancel(id));
  // The cancelled entry is still queued (lazy cancellation); the probe may
  // report 50 — early is safe for a lookahead bound — but never past the
  // earliest live event.
  EXPECT_LE(sched.EarliestPending().micros(), 80);
  sched.DrainToBarrier(SimTime::Micros(100));
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerBarrierTest, DrainToBarrierRunsSameTimestampFloodToQuiescence) {
  Scheduler sched;
  // Events that chain more work at the SAME timestamp: the barrier drain
  // must finish the whole cascade, not stop at the first quiescence probe.
  int ran = 0;
  std::function<void()> chain = [&] {
    ++ran;
    if (ran < 100) {
      sched.ScheduleAt(sched.Now(), chain);
    }
  };
  sched.ScheduleAt(SimTime::Micros(7), chain);
  sched.DrainToBarrier(SimTime::Micros(7));
  EXPECT_EQ(ran, 100);
  EXPECT_EQ(sched.Now().micros(), 7);
  EXPECT_EQ(sched.EarliestPending().micros(), kInfUs);
}

}  // namespace
}  // namespace centsim
