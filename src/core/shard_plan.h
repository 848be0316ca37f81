// Intra-run sharding plan: how one city is partitioned across cores. A
// default-constructed plan (shards == 0) selects the serial engine — the
// path every golden digest is pinned against. Any shards > 0 selects the
// sharded engine, whose results are bit-identical across ANY shard count
// and worker count (including shards == 1). Every district lane runs the
// serial run's DistrictModel over its range, but keys its life draws per
// entity, so the sharded district differs from the serial district, which
// keys draws by running counters in global event order. The century's
// serial run and its lanes are one detailed driver, so a sharded century
// gives the serial report, with Kaplan-Meier observations in lane order.
// See DESIGN.md "Sharded engine".

#ifndef SRC_CORE_SHARD_PLAN_H_
#define SRC_CORE_SHARD_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace centsim {

struct ShardPlan {
  // Number of shard lanes. 0 = serial engine (default; goldens preserved
  // byte-for-byte). 1..N = sharded engine; digests are invariant in N
  // (and, for the century, equal to the serial engine's).
  uint32_t shards = 0;
  // Worker threads driving the lanes. 0 = one per lane, up to the CPUs the
  // process may run on, and one on a pool worker (ShardWorkerCount).
  // Results never depend on this — only wall clock does.
  uint32_t workers = 0;
  // Conservative synchronization window width W. Lanes pre-publish every
  // cross-shard effect a full window ahead, so any W is safe; 0 picks the
  // engine default. Results are invariant to W (same events, commuting
  // tie orders) — W only trades barrier frequency against status
  // granularity.
  SimTime window;

  bool enabled() const { return shards > 0; }

  std::vector<std::string> Validate() const {
    std::vector<std::string> diagnostics;
    if (window.micros() < 0) {
      diagnostics.push_back("negative shard.window: the conservative window width must be "
                            "positive (0 = engine default)");
    }
    return diagnostics;
  }
};

}  // namespace centsim

#endif  // SRC_CORE_SHARD_PLAN_H_
