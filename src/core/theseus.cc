#include "src/core/theseus.h"

#include "src/core/century_model.h"
#include "src/sim/ensemble.h"

namespace centsim {
namespace {

// The serial engine: one scheduler, every domain timer routed through a
// TimerTable (see src/snapshot/timer_table.h) so checkpoints can save
// pending visits and failures as plain records and restored runs re-arm
// them bit-identically. Failures are scheduled through InlineFn-sized
// captures ([this, idx, life]); the availability integral advances at
// every alive-count transition.
class SerialCentury {
 public:
  SerialCentury(Simulation& sim, const CenturyConfig& config, CenturyReport& report)
      : sim_(sim),
        config_(config),
        model_(sim, config, report, 0, config.fleet_size, config.control.recorder),
        // Timer records exist only to be Save()d; a run that will never
        // write a checkpoint routes timers through untracked (free).
        timers_(sim.scheduler(), config.snapshot.checkpoint_every.micros() > 0) {}

  void Run() {
    BatchProjectScheduler batches(sim_, config_.batch,
                                  [this](uint32_t zone, uint32_t) { OnZoneVisit(zone); });
    batches.SetVisitScheduler(
        [this](SimTime at, uint32_t zone, uint32_t cycle) { ArmVisit(at, zone, cycle); });
    RegisterTimerRearms();

    const bool resumed =
        model_.Resume([this](const std::vector<TimerRecord>& records, std::string* error) {
          if (timers_.Restore(records) != 0) {
            *error = "snapshot carries timer tags this driver does not register";
            return false;
          }
          return true;
        });
    if (!resumed) {
      batches.ScheduleThrough(config_.horizon);
      // Initial roll-out: all sites deployed in year 0.
      for (uint32_t idx = 0; idx < config_.fleet_size; ++idx) {
        DeploySiteAt(idx, sim_.Now());
      }
    }

    if (config_.snapshot.checkpoint_every.micros() > 0) {
      // Fixed barrier grid regardless of where the run (re)started.
      const int64_t every = config_.snapshot.checkpoint_every.micros();
      for (int64_t next = (sim_.Now().micros() / every + 1) * every;
           next < config_.horizon.micros(); next += every) {
        sim_.scheduler().DrainToBarrier(SimTime::Micros(next));
        model_.SaveCheckpoint(SimTime::Micros(next), model_.alive(), timers_.Save());
      }
    }
    sim_.RunUntil(config_.horizon);
    Accumulate(config_.horizon);
    model_.Finish();
  }

  // --- Model hooks --------------------------------------------------------

  void DeploySiteAt(uint32_t idx, SimTime at) {
    Accumulate(at);
    model_.DeployAt(idx, at);
    RandomStream site_rng = model_.SiteStream(idx);
    const SimTime life = model_.hardware().SampleLife(site_rng).life * model_.LifeScaleAt(at);
    ArmSiteFailure(at + life, idx, life);
  }

  // A proactive refresh: the cancel goes through the timer table so the
  // pending record is released with the event.
  void RetireSiteAt(uint32_t idx, SimTime at) {
    DeviceFleet& fleet = model_.fleet();
    const EventId failure = fleet.failure_event(idx);
    if (failure != kInvalidEventId) {
      timers_.Cancel(failure);
      fleet.set_failure_event(idx, kInvalidEventId);
    }
    Accumulate(at);
  }

 private:
  void Accumulate(SimTime now) { model_.alive().AccumulateTo(now, model_.fleet().alive_count()); }

  // --- Domain timers (all routed through the TimerTable) ------------------

  void ArmVisit(SimTime at, uint32_t zone, uint32_t cycle) {
    timers_.Schedule(at, kCenturyTimerVisit, zone, cycle, 0.0,
                     [this, zone] { OnZoneVisit(zone); }, kCenturyVisit);
  }

  void ArmSiteFailure(SimTime at, uint32_t idx, SimTime life) {
    model_.fleet().set_failure_event(
        idx, timers_.Schedule(at, kCenturyTimerSiteFail, idx,
                              static_cast<uint64_t>(life.micros()), 0.0,
                              [this, idx, life] { OnSiteFailure(idx, life); },
                              kCenturySiteFail));
  }

  void RegisterTimerRearms() {
    timers_.Register(kCenturyTimerVisit, [this](const TimerRecord& r) {
      ArmVisit(SimTime::Micros(r.at_us), static_cast<uint32_t>(r.a),
               static_cast<uint32_t>(r.b));
    });
    timers_.Register(kCenturyTimerSiteFail, [this](const TimerRecord& r) {
      ArmSiteFailure(SimTime::Micros(r.at_us), static_cast<uint32_t>(r.a),
                     SimTime::Micros(static_cast<int64_t>(r.b)));
    });
  }

  void OnSiteFailure(uint32_t idx, SimTime life) {
    model_.fleet().set_failure_event(idx, kInvalidEventId);
    Accumulate(sim_.Now());
    model_.SiteFailAt(idx, sim_.Now(), life);
  }

  void OnZoneVisit(uint32_t zone) { model_.ZoneVisitAt(zone, sim_.Now(), *this); }

  Simulation& sim_;
  const CenturyConfig& config_;
  CenturyModel model_;
  TimerTable timers_;
};

}  // namespace

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
  for (std::string& diagnostic : shard.Validate()) {
    diagnostics.push_back(std::move(diagnostic));
  }
  if (sampling.enabled()) {
    for (std::string& diagnostic : sampling.Validate()) {
      diagnostics.push_back(std::move(diagnostic));
    }
    if (shard.enabled()) {
      diagnostics.push_back(
          "sampling and sharding are mutually exclusive: the sampled engine "
          "advances the whole fleet analytically between windows");
    }
  }
  return diagnostics;
}

CenturyReport RunCenturyScenario(const CenturyConfig& config) {
  if (config.sampling.enabled()) {
    return RunSampledCenturyScenario(config);
  }
  if (config.shard.enabled()) {
    return RunShardedCenturyScenario(config);
  }
  CheckConfigOrDie("century", config.Validate());
  return RunCenturyEngine<SerialCentury>(config);
}

}  // namespace centsim
