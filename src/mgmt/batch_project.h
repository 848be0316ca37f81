// Geographic batch projects (paper §1): "infrastructure projects operate in
// geographical batches to keep costs down — one project repaves a block,
// installs its traffic sensors, and replaces its streetlights."
//
// A project walks the city's zones on a staggered cadence; at each visit
// the fleet layer replaces failed devices (and, optionally, refreshes
// working-but-old ones). Between visits, failed devices in a zone simply
// stay dark — en-masse replacement is intractable.

#ifndef SRC_MGMT_BATCH_PROJECT_H_
#define SRC_MGMT_BATCH_PROJECT_H_

#include <cstdint>
#include <vector>

#include "src/sim/simulation.h"

namespace centsim {

struct BatchProjectParams {
  uint32_t zone_count = 16;
  // Every zone is visited once per cycle; cycles repeat for the run.
  SimTime cycle_period = SimTime::Years(8);  // Repave cadence.
  // Jitter on each zone's visit within its slot (construction schedules).
  SimTime visit_jitter = SimTime::Days(60);
};

struct BatchVisit {
  SimTime at;
  uint32_t zone = 0;
  uint32_t cycle = 0;
};

// Every visit from time zero through `horizon`, cycle by cycle and, within
// a cycle, zone by zone. Zones are staggered uniformly across the cycle
// period, so at any moment some zone is freshly refreshed and another is
// due (the paper's pipelining), and each visit is jittered within its slot
// by one draw from `sim`'s batch stream. A cycle's draws are made for every
// zone, so the list through a later horizon begins with this one.
std::vector<BatchVisit> BatchVisits(const Simulation& sim, const BatchProjectParams& params,
                                    SimTime horizon);

}  // namespace centsim

#endif  // SRC_MGMT_BATCH_PROJECT_H_
