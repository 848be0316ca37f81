#include "src/sim/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace centsim {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoWorkReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // Must not deadlock.
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAfterWait) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 10 * (round + 1));
  }
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&pool, &counter] {
    ++counter;
    for (int i = 0; i < 5; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  });
  pool.Wait();  // Must cover the nested submissions too.
  EXPECT_EQ(counter.load(), 6);
}

TEST(ThreadPoolTest, WorkDistributesAcrossSlotsDeterministically) {
  // Each task writes its own slot: no ordering assumptions, just
  // completeness — the pattern EnsembleRunner relies on.
  ThreadPool pool(8);
  std::vector<int> slots(64, 0);
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&slots, i] {
      std::this_thread::sleep_for(std::chrono::microseconds(100 - i));
      slots[i] = i + 1;
    });
  }
  pool.Wait();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(slots[i], i + 1);
  }
}

TEST(ThreadPoolTest, DefaultThreadCountPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, OnWorkerOnlyInsideTasks) {
  EXPECT_FALSE(ThreadPool::OnWorker());
  ThreadPool pool(2);
  std::atomic<bool> inside{false};
  pool.Submit([&inside] { inside = ThreadPool::OnWorker(); });
  pool.Wait();
  EXPECT_TRUE(inside.load());
  EXPECT_FALSE(ThreadPool::OnWorker());
}

TEST(ThreadPoolTest, WorkersStartedCountsEveryPool) {
  const uint64_t before = ThreadPool::WorkersStarted();
  {
    ThreadPool three(3);
    ThreadPool clamped(0);
  }
  EXPECT_EQ(ThreadPool::WorkersStarted() - before, 4u);
}

}  // namespace
}  // namespace centsim
