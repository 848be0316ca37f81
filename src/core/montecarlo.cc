#include "src/core/montecarlo.h"

namespace centsim {

FiftyYearEnsemble AggregateFiftyYear(
    const std::vector<EnsembleRunner<FiftyYearExperiment>::Replica>& replicas,
    double weekly_goal) {
  FiftyYearEnsemble ensemble;
  ensemble.runs = static_cast<uint32_t>(replicas.size());
  for (const auto& replica : replicas) {
    const FiftyYearReport& report = replica.report;
    ensemble.weekly_uptime.Add(report.weekly_uptime);
    ensemble.owned_path_uptime.Add(report.owned_path.group_weekly_uptime);
    ensemble.helium_path_uptime.Add(report.helium_path.group_weekly_uptime);
    ensemble.longest_gap_weeks.Add(static_cast<double>(report.longest_gap_weeks));
    ensemble.device_failures.Add(static_cast<double>(report.device_failures));
    ensemble.gateway_failures.Add(static_cast<double>(report.owned_gateway_failures));
    ensemble.maintenance_hours.Add(report.maintenance_hours);
    ensemble.credits_spent.Add(static_cast<double>(report.credits_spent));
    if (report.weekly_uptime >= weekly_goal) {
      ++ensemble.runs_meeting_weekly_goal;
    }
    if (report.helium_path.group_weekly_uptime < 0.5) {
      ++ensemble.runs_helium_path_died;
    }
  }
  return ensemble;
}

}  // namespace centsim
