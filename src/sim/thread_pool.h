// Fixed-size worker pool for embarrassingly-parallel simulation work
// (ensemble replicas, parameter sweeps). Deliberately minimal: a FIFO task
// queue, Submit/Wait, no futures, no work stealing. Determinism is the
// caller's job — the pool guarantees only that every submitted task runs
// exactly once; callers that need a reproducible result must write into
// pre-assigned slots and fold them in a fixed order after Wait().

#ifndef SRC_SIM_THREAD_POOL_H_
#define SRC_SIM_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace centsim {

class ThreadPool {
 public:
  // `threads` == 0 is clamped to 1. The workers start immediately and idle
  // until work arrives.
  explicit ThreadPool(uint32_t threads);
  // Waits for all pending work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task. Tasks must not throw (the simulator is
  // exception-free); a task may Submit further tasks.
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far (and any they spawned) has
  // finished. The pool is reusable after Wait().
  void Wait();

  uint32_t thread_count() const { return static_cast<uint32_t>(workers_.size()); }

  // The CPUs this process may run on: its affinity mask on Linux, else
  // std::thread::hardware_concurrency, with a floor of 1 (the standard
  // allows it to report 0 when unknown).
  static uint32_t DefaultThreadCount();

  // True on a worker thread of any pool. Work that could fan out on a
  // pool of its own runs inline there: the worker's siblings already hold
  // the cores.
  static bool OnWorker();

  // Worker threads started by every pool in the process so far.
  static uint64_t WorkersStarted();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // Work queued, or shutdown.
  std::condition_variable idle_cv_;  // All work drained.
  std::deque<std::function<void()>> queue_;
  uint64_t in_flight_ = 0;  // Queued + currently running tasks.
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

// Calls body(i) once for every i in [0, n), on the caller and on up to
// n - 1 of `pool`'s workers. Each claims the next unclaimed index until none
// is left, so a worker the host schedules late leaves its share to the
// others. Returns when every call has finished. A null pool runs every call
// on the caller, in index order. The calls must not depend on which thread
// runs them or in which order.
void ParallelFor(ThreadPool* pool, size_t n, const std::function<void(size_t)>& body);

}  // namespace centsim

#endif  // SRC_SIM_THREAD_POOL_H_
