// Monte-Carlo sweeps over the 50-year experiment: the paper runs one
// physical instance; the simulator can run the counterfactual ensemble and
// report distributions instead of anecdotes (how often does the Helium
// path die? what is the p10 weekly uptime?).
//
// The heavy lifting lives in the generic EnsembleRunner
// (src/sim/ensemble.h); this header keeps the fifty-year-specific
// aggregate. Replica seeds are derived
// with DeriveReplicaSeed(base.seed, i) — SplitMix64 stream splitting, not
// the correlation-prone `base.seed + i` of earlier versions — so for a
// fixed base seed the ensemble is bit-identical at any thread count.

#ifndef SRC_CORE_MONTECARLO_H_
#define SRC_CORE_MONTECARLO_H_

#include <cstdint>
#include <vector>

#include "src/core/experiment_api.h"
#include "src/sim/stats.h"

namespace centsim {

struct FiftyYearEnsemble {
  uint32_t runs = 0;
  SampleSet weekly_uptime;
  SampleSet owned_path_uptime;
  SampleSet helium_path_uptime;
  SampleSet longest_gap_weeks;
  SummaryStats device_failures;
  SummaryStats gateway_failures;
  SummaryStats maintenance_hours;
  SummaryStats credits_spent;
  uint32_t runs_meeting_weekly_goal = 0;   // Weekly uptime >= threshold.
  uint32_t runs_helium_path_died = 0;      // Helium path uptime < 50%.

  double GoalProbability() const {
    return runs > 0 ? static_cast<double>(runs_meeting_weekly_goal) / runs : 0.0;
  }
  double HeliumDeathProbability() const {
    return runs > 0 ? static_cast<double>(runs_helium_path_died) / runs : 0.0;
  }
};

// Folds an ordered set of replica reports into the ensemble aggregate.
// `weekly_goal` scores the paper's success criterion. Reports must be in
// replica-index order for reproducible SampleSet contents.
FiftyYearEnsemble AggregateFiftyYear(
    const std::vector<EnsembleRunner<FiftyYearExperiment>::Replica>& replicas,
    double weekly_goal = 0.95);

}  // namespace centsim

#endif  // SRC_CORE_MONTECARLO_H_
