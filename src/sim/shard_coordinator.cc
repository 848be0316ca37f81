#include "src/sim/shard_coordinator.h"

#include <algorithm>
#include <cassert>

#include "src/sim/scheduler.h"
#include "src/sim/thread_pool.h"

namespace centsim {
namespace {

// Simulated time between progress barriers.
constexpr int64_t kBarrierCadenceUs = SimTime::Days(90).micros();

}  // namespace

void ShardLane::DrainToBarrier(SimTime barrier) { sched().DrainToBarrier(barrier); }

uint64_t ShardLane::pending_count() { return sched().pending_count(); }

SimTime ShardLane::EarliestPending() { return sched().EarliestPending(); }

uint32_t ShardWorkerCount(uint32_t lanes, uint32_t requested) {
  if (requested != 0) {
    return std::min(requested, lanes);
  }
  return ThreadPool::OnWorker() ? 1 : std::min(lanes, ThreadPool::DefaultThreadCount());
}

uint64_t RunShardLanes(ThreadPool& pool, const std::vector<ShardLane*>& lanes,
                       const ShardRunOptions& options) {
  assert(!lanes.empty());
  const int64_t horizon = options.horizon.micros();
  const int64_t every = options.checkpoint_every.micros();

  for (ShardLane* lane : lanes) {
    pool.Submit([lane] { lane->Setup(); });
  }
  pool.Wait();

  for (int64_t barrier = options.start.micros(); barrier < horizon;) {
    int64_t next = std::min(barrier + kBarrierCadenceUs, horizon);
    if (every > 0) {
      next = std::min(next, (barrier / every + 1) * every);
    }
    barrier = next;
    for (ShardLane* lane : lanes) {
      pool.Submit([lane, barrier] { lane->DrainToBarrier(SimTime::Micros(barrier)); });
    }
    pool.Wait();

    if (every > 0 && barrier % every == 0 && barrier < horizon && options.on_checkpoint) {
      options.on_checkpoint(SimTime::Micros(barrier));
    }
    if (options.replica_progress != nullptr) {
      uint64_t executed = 0;
      uint64_t pending = 0;
      int64_t next_event = INT64_MAX;
      for (ShardLane* lane : lanes) {
        executed += lane->sched().executed_count();
        pending += lane->pending_count();
        next_event = std::min(next_event, lane->EarliestPending().micros());
      }
      options.replica_progress->Publish(barrier, next_event, executed, pending, pending);
    }
  }

  uint64_t executed = 0;
  for (ShardLane* lane : lanes) {
    executed += lane->sched().executed_count();
  }
  if (options.replica_progress != nullptr) {
    options.replica_progress->MarkDone(horizon, executed);
  }
  return executed;
}

}  // namespace centsim
