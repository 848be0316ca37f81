#include "src/energy/harvester_stats.h"

#include <algorithm>

namespace centsim {

HarvestReliability AssessHarvester(const HarvesterModel& harvester, SimTime from, SimTime to,
                                   SimTime step, double threshold_w) {
  HarvestReliability out;
  if (to <= from || step.micros() <= 0) {
    return out;
  }
  double sum = 0.0;
  uint64_t samples = 0;
  uint64_t above = 0;
  SimTime drought_start;
  bool in_drought = false;
  SimTime worst_drought;
  for (SimTime t = from; t < to; t += step) {
    const double p = harvester.PowerAt(t);
    sum += p;
    ++samples;
    out.peak_power_w = std::max(out.peak_power_w, p);
    if (p >= threshold_w) {
      ++above;
      if (in_drought) {
        worst_drought = std::max(worst_drought, t - drought_start);
        in_drought = false;
      }
    } else if (!in_drought) {
      in_drought = true;
      drought_start = t;
    }
  }
  if (in_drought) {
    worst_drought = std::max(worst_drought, to - drought_start);
  }
  out.mean_power_w = samples ? sum / static_cast<double>(samples) : 0.0;
  out.capacity_factor = out.peak_power_w > 0 ? out.mean_power_w / out.peak_power_w : 0.0;
  out.fraction_above_threshold =
      samples ? static_cast<double>(above) / static_cast<double>(samples) : 0.0;
  out.longest_drought = worst_drought;
  out.bridging_storage_j = threshold_w * worst_drought.ToSeconds();
  return out;
}

}  // namespace centsim
