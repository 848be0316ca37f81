#include "src/sim/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

namespace centsim {
namespace {

thread_local bool t_on_worker = false;
std::atomic<uint64_t> g_workers_started{0};

}  // namespace

ThreadPool::ThreadPool(uint32_t threads) {
  const uint32_t count = std::max(1u, threads);
  g_workers_started.fetch_add(count, std::memory_order_relaxed);
  workers_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Shutdown with a drained queue.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

uint32_t ThreadPool::DefaultThreadCount() {
#ifdef __linux__
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    return static_cast<uint32_t>(std::max(1, CPU_COUNT(&cpus)));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

bool ThreadPool::OnWorker() { return t_on_worker; }

uint32_t ThreadPool::SpareCores() { return OnWorker() ? 0 : DefaultThreadCount() - 1; }

uint64_t ThreadPool::WorkersStarted() {
  return g_workers_started.load(std::memory_order_relaxed);
}

void ParallelFor(ThreadPool* pool, size_t n, const std::function<void(size_t)>& body) {
  if (pool == nullptr || n < 2) {
    for (size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  const auto claim = [&body, &next, n] {
    for (size_t i; (i = next.fetch_add(1)) < n;) {
      body(i);
    }
  };
  const size_t helpers = std::min<size_t>(pool->thread_count(), n - 1);
  for (size_t w = 0; w < helpers; ++w) {
    pool->Submit(claim);
  }
  claim();
  pool->Wait();
}

}  // namespace centsim
