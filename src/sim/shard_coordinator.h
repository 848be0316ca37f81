// Barrier coordinator for intra-run sharding (ROADMAP item 1). Each
// ShardLane wraps one Scheduler over a column range of the fleet, and the
// lanes share nothing: a lane needs no other lane's events, so they could
// run to the horizon independently. The coordinator still drains them in
// lockstep on a ThreadPool, to barriers that exist only for observers:
//
//   setup:    every lane builds its state and arms its first events
//   barrier:  every lane drains to B (ShardLane::DrainToBarrier) on a
//             worker; then the main thread, lanes quiescent, fires the
//             checkpoint hook on the grid and publishes replica progress
//
// Barrier placement: B_{k+1} = min(horizon, B_k + 90 days, next checkpoint
// grid point). Results never depend on where barriers fall.

#ifndef SRC_SIM_SHARD_COORDINATOR_H_
#define SRC_SIM_SHARD_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/run_progress.h"
#include "src/sim/time.h"

namespace centsim {

class ThreadPool;
class Scheduler;

class ShardLane {
 public:
  virtual ~ShardLane() = default;

  // Build lane-local state (fleet columns, coverage, timers) and arm the
  // first events. Runs on a worker thread.
  virtual void Setup() = 0;

  // The lane's scheduler, read on the main thread while lanes are
  // quiescent. Its executed count is the lane's: an event a lane keeps
  // outside the queue counts there too (Scheduler::RunUnqueued).
  virtual Scheduler& sched() = 0;

  // Runs every event at or before `barrier` and leaves the lane's clock
  // there; runs on a worker thread. The default drains the scheduler; a
  // lane that keeps events outside it drains those too, in time order.
  virtual void DrainToBarrier(SimTime barrier);

  // The lane's pending events, and a lower bound on the earliest one's time
  // (SimTime::Max() when none), read on the main thread while lanes are
  // quiescent. The defaults read the scheduler.
  virtual uint64_t pending_count();
  virtual SimTime EarliestPending();
};

struct ShardRunOptions {
  // Where the lanes' clocks stand at Setup: 0 for a fresh run, the
  // restored barrier for a resumed one. The barrier cadence and the
  // checkpoint grid both count from here.
  SimTime start;
  SimTime horizon;
  SimTime checkpoint_every;          // 0 = no checkpoint grid
  // Main thread, lanes quiescent, at each grid point < horizon.
  std::function<void(SimTime)> on_checkpoint;
  // Replica-level roll-up, published by the main thread at each barrier.
  ProgressCell* replica_progress = nullptr;
};

// Worker threads for `lanes` lanes: `requested` when non-zero, else one
// per lane up to the CPUs this process may run on
// (ThreadPool::DefaultThreadCount), and one on a pool worker (an ensemble
// replica or a branch), whose siblings already hold the cores. Never more
// than `lanes`: each barrier hands out one task per lane. Results never
// depend on it.
uint32_t ShardWorkerCount(uint32_t lanes, uint32_t requested);

// Runs every lane from Setup at options.start through the horizon. Returns
// total events executed across lanes. Lanes end with Now() == horizon.
uint64_t RunShardLanes(ThreadPool& pool, const std::vector<ShardLane*>& lanes,
                       const ShardRunOptions& options);

}  // namespace centsim

#endif  // SRC_SIM_SHARD_COORDINATOR_H_
