// The century scenario's serial engine, DetailedCentury (declared in
// century_model.h), and the scenario's config checks and engine dispatch
// (see theseus.h).
//
// Determinism: every lifetime draw is keyed by (site index, unit
// generation), and the availability integral is exact integer
// site-microseconds (SiteSeconds).
//
// Checkpoints hold no timer: a resumed run arms the visits from the config
// as a fresh one does, from the time its file names, and the failures from
// the fleet's deadlines.

#include "src/core/theseus.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/century_model.h"
#include "src/sim/ensemble.h"

namespace centsim {

DetailedCentury::DetailedCentury(Simulation& sim, const CenturyConfig& config,
                                 CenturyReport& report)
    : sim_(sim),
      config_(config),
      model_(sim, config, report, 0, config.fleet_size, config.control.recorder),
      calendar_(model_.fleet(), config.horizon) {}

void DetailedCentury::Run() {
  const std::optional<SimTime> visits_from = CenturyModel::Resume(whole_, model_.report());
  for (const BatchVisit& v :
       BatchVisits(sim_, config_.batch, config_.horizon, visits_from.value_or(SimTime()))) {
    const uint32_t zone = v.zone;
    sim_.scheduler().ScheduleAt(
        v.at, [this, zone] { model_.ZoneVisitAt(zone, sim_.Now(), *this); }, kCenturyVisit);
  }
  if (visits_from) {
    calendar_.ArmDeadlines();
  } else {
    for (uint32_t idx = 0; idx < model_.size(); ++idx) {
      DeploySiteAt(idx, sim_.Now());
    }
  }
  if (config_.snapshot.checkpoint_every.micros() > 0) {
    // Fixed barrier grid regardless of where the run (re)started.
    const int64_t every = config_.snapshot.checkpoint_every.micros();
    for (int64_t next = (sim_.Now().micros() / every + 1) * every;
         next < config_.horizon.micros(); next += every) {
      RunTo(SimTime::Micros(next));
      SaveCheckpoint(SimTime::Micros(next));
    }
  }
  RunTo(config_.horizon);
  Accumulate(config_.horizon);
  model_.Finish();
}

void DetailedCentury::DeploySiteAt(uint32_t idx, SimTime at) {
  Accumulate(at);
  model_.DeployAt(idx, at);
  RandomStream site_rng = model_.SiteStream(idx);
  const SimTime life = model_.hardware().SampleLife(site_rng).life * model_.LifeScaleAt(at);
  ArmSiteFailure(at + life, idx);
}

// A failure feeds the unit's life, its fail time minus its deployment
// time, to the survival estimator.
void DetailedCentury::RunTo(SimTime limit) {
  calendar_.RunTo(sim_.scheduler(), limit, kCenturySiteFail, [](uint32_t) {},
                  [this](uint32_t idx, SimTime at) {
                    Accumulate(at);
                    model_.SiteFailAt(idx, at, at - model_.fleet().deployed_at(idx));
                  });
}

std::vector<std::string> CenturyConfig::Validate() const {
  std::vector<std::string> diagnostics;
  if (fleet_size == 0) {
    diagnostics.push_back("fleet_size is zero: the century fleet needs at least one site");
  }
  if (horizon.micros() <= 0) {
    diagnostics.push_back("non-positive horizon (" + horizon.ToString() +
                          "): set horizon to a positive duration");
  }
  if (batch.zone_count == 0) {
    diagnostics.push_back("batch.zone_count is zero: batch projects need at least one zone");
  }
  if (batch.cycle_period.micros() <= 0) {
    diagnostics.push_back("non-positive batch.cycle_period: zones must be revisited on a "
                          "positive cadence");
  }
  if (proactive_refresh_age.micros() < 0) {
    diagnostics.push_back("negative proactive_refresh_age: use 0 to disable proactive refresh");
  }
  if (life_improvement_per_decade <= 0.0) {
    diagnostics.push_back("life_improvement_per_decade must be positive (1.0 = no improvement)");
  }
  for (std::string& diagnostic : snapshot.Validate()) {
    diagnostics.push_back(std::move(diagnostic));
  }
  if (sampling.enabled()) {
    for (std::string& diagnostic : sampling.Validate()) {
      diagnostics.push_back(std::move(diagnostic));
    }
  }
  return diagnostics;
}

CenturyReport RunCenturyScenario(const CenturyConfig& config) {
  if (config.sampling.enabled()) {
    return RunSampledCenturyScenario(config);
  }
  CheckConfigOrDie("century", config.Validate());
  return RunCenturyEngine<DetailedCentury>(config);
}

}  // namespace centsim
