// The district's intra-run sharding plan: how one city is split across cores. A
// default-constructed plan (shards == 0) selects the serial engine — the
// path every golden digest is pinned against. Any shards > 0 selects the
// sharded engine, whose results are bit-identical across ANY shard count
// and worker count (including shards == 1). Lanes exchange nothing: every
// district lane runs the serial run's DistrictModel over its range and
// replays every gateway's keyed timeline itself. Lanes key their life
// draws per entity, so the sharded district differs from the serial
// district, which keys draws by running counters in global event order.
// The century has no lanes. See DESIGN.md "Sharded engine".

#ifndef SRC_CORE_SHARD_PLAN_H_
#define SRC_CORE_SHARD_PLAN_H_

#include <cstdint>

namespace centsim {

struct ShardPlan {
  // Number of shard lanes. 0 = serial engine (default; goldens preserved
  // byte-for-byte). 1..N = sharded engine; digests are invariant in N.
  uint32_t shards = 0;
  // Threads draining the lanes, the calling thread included, so 1 drains
  // every lane on the caller. 0 = one per lane, up to the CPUs the process
  // may run on, and only the caller on a pool worker (an ensemble replica
  // or a branch; ThreadPool::SpareCores). Any count is capped at the lane
  // count. Results never depend on this — only wall clock does.
  uint32_t workers = 0;

  bool enabled() const { return shards > 0; }
};

}  // namespace centsim

#endif  // SRC_CORE_SHARD_PLAN_H_
