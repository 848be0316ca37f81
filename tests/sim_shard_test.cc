// Shard-engine substrate tests: the Scheduler's barrier API and the
// barrier coordinator over fake lanes. These pin the invariants the
// sharded drivers are built on — quiescence at barriers, every lane ending
// on the horizon, a barrier at every checkpoint grid point, and a progress
// row that counts a lane's events kept outside its scheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "src/sim/run_progress.h"
#include "src/sim/scheduler.h"
#include "src/sim/shard_coordinator.h"
#include "src/sim/thread_pool.h"
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

// --- Coordinator over fake lanes -----------------------------------------

// A lane that runs a fixed schedule of local events.
class RecordingLane final : public ShardLane {
 public:
  explicit RecordingLane(std::vector<int64_t> event_times_us)
      : event_times_us_(std::move(event_times_us)) {}

  void Setup() override {
    for (const int64_t t : event_times_us_) {
      sched_.ScheduleAt(SimTime::Micros(t), [this, t] { executed_at_.push_back(t); });
    }
  }

  Scheduler& sched() override { return sched_; }

  Scheduler sched_;
  std::vector<int64_t> event_times_us_;
  std::vector<int64_t> executed_at_;
};

TEST(ShardCoordinatorTest, LanesEndAtHorizonAndCountExecuted) {
  RecordingLane a({100, 2500, 9000});
  RecordingLane b({300, 7000});
  std::vector<ShardLane*> lanes{&a, &b};
  ThreadPool pool(2);

  ShardRunOptions opts;
  opts.horizon = SimTime::Micros(10000);
  const uint64_t executed = RunShardLanes(pool, lanes, opts);

  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(a.sched_.Now().micros(), 10000);
  EXPECT_EQ(b.sched_.Now().micros(), 10000);
  EXPECT_EQ(a.executed_at_, (std::vector<int64_t>{100, 2500, 9000}));
  EXPECT_EQ(b.executed_at_, (std::vector<int64_t>{300, 7000}));
}

TEST(ShardCoordinatorTest, CheckpointGridAlwaysGetsABarrier) {
  RecordingLane a({100, 950000});
  std::vector<ShardLane*> lanes{&a};
  ThreadPool pool(1);

  std::vector<int64_t> hooks_us;
  ShardRunOptions opts;
  opts.horizon = SimTime::Micros(1000000);
  opts.checkpoint_every = SimTime::Micros(300000);
  opts.on_checkpoint = [&](SimTime at) {
    // The lane has drained exactly to the barrier.
    EXPECT_EQ(a.sched_.Now(), at);
    hooks_us.push_back(at.micros());
  };
  RunShardLanes(pool, lanes, opts);

  // Grid points strictly below the horizon each get a checkpoint, even
  // though the lane is quiescent across most of them.
  EXPECT_EQ(hooks_us, (std::vector<int64_t>{300000, 600000, 900000}));
  EXPECT_EQ(a.executed_at_, (std::vector<int64_t>{100, 950000}));
}

TEST(ShardCoordinatorTest, PublishesReplicaProgress) {
  RecordingLane a({100, 4000});
  std::vector<ShardLane*> lanes{&a};
  ThreadPool pool(1);

  ProgressCell replica_cell;
  ShardRunOptions opts;
  opts.horizon = SimTime::Micros(5000);
  opts.replica_progress = &replica_cell;
  RunShardLanes(pool, lanes, opts);

  const ProgressCell::View replica_view = replica_cell.Load();
  EXPECT_TRUE(replica_view.done);
  EXPECT_EQ(replica_view.sim_us, 5000);
  EXPECT_EQ(replica_view.executed, 2u);
}

// A lane that keeps some events outside its scheduler, in a sorted list
// of its own, as a district lane keeps unit failures in its model's
// calendar: it drains them between scheduler events, a scheduler event
// first at equal times, and runs each as an unqueued event.
class CalendarLane final : public ShardLane {
 public:
  CalendarLane(std::vector<int64_t> queued_us, std::vector<int64_t> unqueued_us)
      : queued_us_(std::move(queued_us)), unqueued_us_(std::move(unqueued_us)) {}

  void Setup() override {
    for (const int64_t t : queued_us_) {
      sched_.ScheduleAt(SimTime::Micros(t), [this, t] { executed_at_.push_back(t); });
    }
  }

  Scheduler& sched() override { return sched_; }

  void DrainToBarrier(SimTime barrier) override {
    for (; next_ < unqueued_us_.size() && unqueued_us_[next_] <= barrier.micros(); ++next_) {
      const int64_t t = unqueued_us_[next_];
      while (sched_.NextEventAt().micros() <= t) {
        sched_.Step();
      }
      sched_.RunUnqueued(SimTime::Micros(t), "unqueued", [this, t] { executed_at_.push_back(t); });
    }
    sched_.DrainToBarrier(barrier);
  }

  uint64_t pending_count() override {
    return sched_.pending_count() + (unqueued_us_.size() - next_);
  }

  SimTime EarliestPending() override {
    const SimTime unqueued =
        next_ < unqueued_us_.size() ? SimTime::Micros(unqueued_us_[next_]) : SimTime::Max();
    return std::min(sched_.EarliestPending(), unqueued);
  }

  Scheduler sched_;
  std::vector<int64_t> queued_us_;
  std::vector<int64_t> unqueued_us_;
  size_t next_ = 0;
  std::vector<int64_t> executed_at_;
};

// The coordinator drains such a lane through its hook, and its progress
// row counts the lane's unqueued events as executed and pending, and
// names the earliest of them as the next event. Each checkpoint hook reads
// the row the previous barrier published.
TEST(ShardCoordinatorTest, ProgressRowCountsEventsOutsideTheScheduler) {
  CalendarLane a({100, 4000, 9000}, {2500, 4000, 7000});
  std::vector<ShardLane*> lanes{&a};
  ThreadPool pool(1);

  ProgressCell replica_cell;
  std::vector<ProgressCell::View> rows;
  ShardRunOptions opts;
  opts.horizon = SimTime::Micros(10000);
  opts.checkpoint_every = SimTime::Micros(3000);
  opts.replica_progress = &replica_cell;
  opts.on_checkpoint = [&](SimTime) { rows.push_back(replica_cell.Load()); };
  EXPECT_EQ(RunShardLanes(pool, lanes, opts), 6u);

  EXPECT_EQ(a.executed_at_, (std::vector<int64_t>{100, 2500, 4000, 4000, 7000, 9000}));
  ASSERT_EQ(rows.size(), 3u);
  // The row of the barrier at 3000: two events ran, four wait, the next at
  // 4000. Then the barrier at 6000: four ran, two wait, the next at 7000.
  EXPECT_EQ(rows[1].sim_us, 3000);
  EXPECT_EQ(rows[1].executed, 2u);
  EXPECT_EQ(rows[1].pending, 4u);
  EXPECT_EQ(rows[1].next_event_us, 4000);
  EXPECT_EQ(rows[2].sim_us, 6000);
  EXPECT_EQ(rows[2].executed, 4u);
  EXPECT_EQ(rows[2].pending, 2u);
  EXPECT_EQ(rows[2].next_event_us, 7000);
  EXPECT_EQ(replica_cell.Load().executed, 6u);
}

}  // namespace
}  // namespace centsim
