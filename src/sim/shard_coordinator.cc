#include "src/sim/shard_coordinator.h"

#include <algorithm>
#include <cassert>

#include "src/sim/scheduler.h"
#include "src/sim/thread_pool.h"

namespace centsim {

namespace {

int64_t MinLaneBound(const std::vector<ShardLane*>& lanes) {
  int64_t bound = INT64_MAX;
  for (ShardLane* lane : lanes) {
    bound = std::min(bound, lane->NextBound().micros());
  }
  return bound;
}

}  // namespace

uint32_t ShardWorkerCount(uint32_t lanes, uint32_t requested) {
  if (requested != 0) {
    return requested;
  }
  return ThreadPool::OnWorker() ? 1 : std::min(lanes, ThreadPool::DefaultThreadCount());
}

uint64_t RunShardWindows(ThreadPool& pool, const std::vector<ShardLane*>& lanes,
                         const ShardWindowOptions& options) {
  assert(!lanes.empty());
  assert(options.window.micros() > 0);
  const int64_t start = options.start.micros();
  const int64_t horizon = options.horizon.micros();
  const int64_t window = options.window.micros();
  const int64_t every = options.checkpoint_every.micros();

  // Next barrier after `from`, honoring the skip rule and clamps. Always
  // strictly greater than `from` while from < horizon. The skip lands one
  // microsecond BEFORE the lane bound, never on it: a barrier exactly on an
  // un-emitted transition time would let the owning lane apply it one
  // window before the remote lanes see the broadcast, and a checkpoint cut
  // at that barrier would capture the two views inconsistently.
  auto next_barrier = [&](int64_t from) {
    int64_t target = std::max(MinLaneBound(lanes) - 1, from + window);
    // from + window cannot overflow in practice (horizon and W are both
    // bounded by century scale ~3e15 us), but keep the clamp order safe.
    if (target < from) { target = INT64_MAX; }
    int64_t barrier = std::min(target, horizon);
    if (every > 0) {
      const int64_t grid = (from / every + 1) * every;
      if (grid < horizon && barrier > grid) { barrier = grid; }
    }
    return barrier;
  };

  // Setup: no lookahead exists yet, so the first window has fixed width.
  int64_t b1 = std::min(start + window, horizon);
  if (every > 0) {
    const int64_t grid = (start / every + 1) * every;
    if (grid < b1) { b1 = grid; }
  }
  for (size_t i = 0; i < lanes.size(); ++i) {
    ShardLane* lane = lanes[i];
    pool.Submit([lane, b1] { lane->Setup(SimTime::Micros(b1)); });
  }
  pool.Wait();
  if (options.on_barrier) { options.on_barrier(); }

  int64_t barrier = b1;
  while (true) {
    // Cover: everything a lane publishes this window must fire strictly
    // after the *next* barrier; next_barrier() never exceeds
    // barrier + window, so covering through min(barrier + W, horizon) keeps
    // every cross-shard effect a full window ahead of its fire time.
    const int64_t cover = std::min(barrier + window, horizon);
    for (ShardLane* lane : lanes) {
      pool.Submit([lane, barrier, cover] {
        lane->RunWindow(SimTime::Micros(barrier), SimTime::Micros(cover));
      });
    }
    pool.Wait();
    if (options.on_barrier) { options.on_barrier(); }

    const bool at_grid = every > 0 && barrier % every == 0 && barrier < horizon;
    if (at_grid) {
      for (ShardLane* lane : lanes) { lane->AtCheckpointBarrier(SimTime::Micros(barrier)); }
      if (options.on_checkpoint) { options.on_checkpoint(SimTime::Micros(barrier)); }
    }

    if (options.replica_progress != nullptr) {
      uint64_t executed = 0;
      uint64_t pending = 0;
      for (ShardLane* lane : lanes) {
        executed += lane->sched().executed_count();
        pending += lane->sched().pending_count();
      }
      options.replica_progress->Publish(barrier, MinLaneBound(lanes), executed, pending,
                                        pending);
    }

    if (barrier >= horizon) { break; }
    barrier = next_barrier(barrier);
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
