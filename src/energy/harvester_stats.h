// Harvester reliability assessment ("Reliable Energy Sources as a
// Foundation for Reliable Intermittent Systems", the paper's ref [20]):
// a harvester is an energy *source* whose quality is not its peak power
// but its dependability — capacity factor, fraction of time above the
// load's floor, and the longest drought the storage must bridge.

#ifndef SRC_ENERGY_HARVESTER_STATS_H_
#define SRC_ENERGY_HARVESTER_STATS_H_

#include "src/energy/harvester.h"
#include "src/sim/time.h"

namespace centsim {

struct HarvestReliability {
  double mean_power_w = 0.0;
  double peak_power_w = 0.0;
  double capacity_factor = 0.0;        // mean / peak.
  double fraction_above_threshold = 0.0;
  SimTime longest_drought;             // Longest run below the threshold.
  // Storage needed to ride the worst drought at `load_w` draw (J).
  double bridging_storage_j = 0.0;
};

// Samples the harvester over [from, to] at `step` resolution and scores it
// against a load floor of `threshold_w`.
HarvestReliability AssessHarvester(const HarvesterModel& harvester, SimTime from, SimTime to,
                                   SimTime step, double threshold_w);

}  // namespace centsim

#endif  // SRC_ENERGY_HARVESTER_STATS_H_
