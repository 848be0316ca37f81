// Intra-run sharding plan (ROADMAP item 1): how one city is partitioned
// across cores. A default-constructed plan (shards == 0) selects the serial
// engine — the path every golden digest is pinned against. Any shards > 0
// selects the sharded engine, whose results are bit-identical across ANY
// shard count and worker count (including shards == 1). The sharded
// district derives per-entity RNG streams and integrates availability in
// integers so its merge is order-free, and so differs from the serial
// district, which threads one RNG through a global event order. The
// century's serial run and its lanes are one detailed driver, so a sharded
// century gives the serial report, with Kaplan-Meier observations in lane
// order. See DESIGN.md "Sharded engine".

#ifndef SRC_CORE_SHARD_PLAN_H_
#define SRC_CORE_SHARD_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace centsim {

struct ProgressCell;
class FlightRecorder;

struct ShardPlan {
  // Number of shard lanes. 0 = serial engine (default; goldens preserved
  // byte-for-byte). 1..N = sharded engine; digests are invariant in N
  // (and, for the century, equal to the serial engine's).
  uint32_t shards = 0;
  // Worker threads driving the lanes. 0 = one per shard. Results never
  // depend on this — only wall clock does.
  uint32_t workers = 0;
  // Conservative synchronization window width W. Lanes pre-publish every
  // cross-shard effect a full window ahead, so any W is safe; 0 picks the
  // engine default. Results are invariant to W (same events, commuting
  // tie orders) — W only trades barrier frequency against status
  // granularity.
  SimTime window;

  // Optional per-shard observability: lane i publishes its window progress
  // into shard_progress[i] and rare lifecycle transitions into
  // shard_recorders[i]. Sized >= shards or left empty.
  std::vector<ProgressCell*> shard_progress;
  std::vector<FlightRecorder*> shard_recorders;

  bool enabled() const { return shards > 0; }

  std::vector<std::string> Validate() const {
    std::vector<std::string> diagnostics;
    if (window.micros() < 0) {
      diagnostics.push_back("negative shard.window: the conservative window width must be "
                            "positive (0 = engine default)");
    }
    if (!shard_progress.empty() && shard_progress.size() < shards) {
      diagnostics.push_back("shard.shard_progress is shorter than shard.shards: size it to "
                            "one cell per shard or leave it empty");
    }
    if (!shard_recorders.empty() && shard_recorders.size() < shards) {
      diagnostics.push_back("shard.shard_recorders is shorter than shard.shards: size it to "
                            "one recorder per shard or leave it empty");
    }
    return diagnostics;
  }
};

}  // namespace centsim

#endif  // SRC_CORE_SHARD_PLAN_H_
