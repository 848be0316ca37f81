#include "src/mgmt/batch_project.h"

namespace centsim {

std::vector<BatchVisit> BatchVisits(const Simulation& sim, const BatchProjectParams& params,
                                    SimTime horizon, SimTime from) {
  RandomStream rng = sim.StreamFor(0x6261746368ULL);
  const SimTime slot = params.cycle_period * (1.0 / params.zone_count);
  std::vector<BatchVisit> visits;
  for (uint32_t cycle = 0;; ++cycle) {
    const SimTime cycle_start = params.cycle_period * static_cast<double>(cycle);
    if (cycle_start > horizon) {
      return visits;
    }
    for (uint32_t zone = 0; zone < params.zone_count; ++zone) {
      const SimTime at = cycle_start + slot * static_cast<double>(zone) +
                         SimTime::Seconds(rng.Uniform(0.0, params.visit_jitter.ToSeconds()));
      if (at >= from && at <= horizon) {
        visits.push_back({at, zone, cycle});
      }
    }
  }
}

}  // namespace centsim
