// Conservative windowed-barrier coordinator for intra-run sharding
// (ROADMAP item 1, after D'Angelo et al.'s PADS approach). Each ShardLane
// wraps one Scheduler over a column range of the fleet; the coordinator
// advances all lanes in lockstep windows on a ThreadPool:
//
//   setup:    lanes build state and pre-publish cross-shard effects
//             through the first barrier B1 (+ one window of cover)
//   window w: lanes drain the previous window's inboxes, extend their
//             cross-shard cover through barrier+W, then DrainToBarrier(Bw)
//   barrier:  main thread flips the bus planes, fires checkpoint hooks on
//             the grid, polls NextBound() for the next barrier
//
// Barrier placement: B_{w+1} = min(horizon, next checkpoint grid point,
// max(B_w + W, min over lanes NextBound())) — i.e. windows can skip ahead
// over quiescent stretches, but never past a checkpoint and never past any
// lane's earliest pending work. Lanes must publish every cross-shard
// effect at least one full window before it fires (they schedule their own
// local copy eagerly, so NextBound() covers in-flight messages); under
// that contract skipping is safe and results are invariant to W.

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

  // Build lane-local state (fleet columns, coverage, timers) and
  // pre-publish cross-shard effects with fire times <= `cover`. Runs on a
  // worker thread; the first window's inbox drain delivers what Setup
  // published.
  virtual void Setup(SimTime cover) = 0;

  // Conservative lower bound on this lane's earliest future effect —
  // min(scheduler EarliestPending, earliest not-yet-published cross-shard
  // source). Called on the main thread while lanes are quiescent.
  virtual SimTime NextBound() = 0;

  // Drain inboxes, extend cross-shard cover through `cover`, then run to
  // `barrier`. Runs on a worker thread.
  virtual void RunWindow(SimTime barrier, SimTime cover) = 0;

  // Called on the main thread at checkpoint-grid barriers (all lanes
  // quiescent) so the lane can flush accumulators to the barrier before
  // the snapshot hook reads them.
  virtual void AtCheckpointBarrier(SimTime barrier) { (void)barrier; }

  virtual Scheduler& sched() = 0;
};

struct ShardWindowOptions {
  // Where the lanes' clocks stand at Setup: 0 for a fresh run, the
  // restored barrier for a resumed one. The first window and the
  // checkpoint grid both count from here.
  SimTime start;
  SimTime horizon;
  SimTime window;                    // W; must be > 0
  SimTime checkpoint_every;          // 0 = no checkpoint grid
  // Main thread, lanes quiescent and flushed, at each grid point < horizon.
  std::function<void(SimTime)> on_checkpoint;
  // Main thread, at every barrier after Wait (bus plane flip goes here).
  std::function<void()> on_barrier;
  // Replica-level roll-up, published by the main thread at each barrier.
  ProgressCell* replica_progress = nullptr;
};

// Worker threads for `lanes` lanes: `requested` when non-zero, else one
// per lane up to the CPUs this process may run on
// (ThreadPool::DefaultThreadCount), and one on a pool worker (an ensemble
// replica or a branch), whose siblings already hold the cores. Results
// never depend on it.
uint32_t ShardWorkerCount(uint32_t lanes, uint32_t requested);

// Runs every lane from Setup at options.start through the horizon. Returns
// total events executed across lanes. Lanes end with Now() == horizon.
uint64_t RunShardWindows(ThreadPool& pool, const std::vector<ShardLane*>& lanes,
                         const ShardWindowOptions& options);

}  // namespace centsim

#endif  // SRC_SIM_SHARD_COORDINATOR_H_
