// The century scenario's detailed engine, serial and sharded (see theseus.h).
//
// One driver, DetailedCentury, advances the century model over a range of
// sites on one scheduler: the whole fleet for the serial run, one contiguous
// column range per shard lane. Century sites never interact, so a lane
// needs nothing from another lane.
//
// Determinism: every lifetime draw is keyed by (global site index, unit
// generation) and the availability integral is exact integer
// site-microseconds (SiteSeconds), so lanes merge order-free. The report is
// the same at any shard or worker count, and equal to the serial run's.
// Kaplan-Meier observations are concatenated in lane order (failures then
// survivors per lane): one lane gives the serial sequence, more lanes the
// same multiset in another order.
//
// Snapshot checkpointing runs only serially (the TimerTable capture assumes
// one scheduler); requesting it with shards is a config error, reported
// fail-fast.

#include "src/core/theseus.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/century_model.h"
#include "src/mgmt/batch_project.h"
#include "src/sim/ensemble.h"
#include "src/sim/shard_coordinator.h"
#include "src/sim/thread_pool.h"

namespace centsim {
namespace {

// The detailed driver over sites [begin, end) of the config's fleet, on
// `sim`'s scheduler. Every domain timer goes through a TimerTable, so
// checkpoints can save pending visits and failures as plain records and
// restored runs re-arm them bit-identically; the table keeps records only
// when the run writes checkpoints. Failures are scheduled through
// InlineFn-sized captures ([this, idx, life]); the availability integral
// advances at every alive-count transition.
class DetailedCentury {
 public:
  DetailedCentury(Simulation& sim, const CenturyConfig& config, CenturyReport& report,
                  uint32_t begin, uint32_t end, FlightRecorder* recorder)
      : sim_(sim),
        config_(config),
        model_(sim, config, report, begin, end, recorder),
        timers_(sim.scheduler(), config.snapshot.checkpoint_every.micros() > 0),
        batches_(sim, config.batch, [](uint32_t, uint32_t) {}) {
    batches_.SetVisitScheduler(
        [this](SimTime at, uint32_t zone, uint32_t cycle) { ArmVisit(at, zone, cycle); });
    RegisterTimerRearms();
  }

  // The serial engine: the whole fleet, recording into the run's recorder.
  DetailedCentury(Simulation& sim, const CenturyConfig& config, CenturyReport& report)
      : DetailedCentury(sim, config, report, 0, config.fleet_size, config.control.recorder) {}

  // The serial run: starts, writes a checkpoint at every grid point, and
  // runs to the horizon.
  void Run() {
    Start();
    if (config_.snapshot.checkpoint_every.micros() > 0) {
      // Fixed barrier grid regardless of where the run (re)started.
      const int64_t every = config_.snapshot.checkpoint_every.micros();
      for (int64_t next = (sim_.Now().micros() / every + 1) * every;
           next < config_.horizon.micros(); next += every) {
        sim_.scheduler().DrainToBarrier(SimTime::Micros(next));
        CenturyModel::SaveCheckpoint(whole_, SimTime::Micros(next), model_.alive(),
                                     timers_.Save(), model_.report());
      }
    }
    sim_.RunUntil(config_.horizon);
    Finish();
  }

  // Resumes from the plan's snapshot, or schedules the batch visits through
  // the horizon and deploys every site (the initial roll-out, year 0).
  void Start() {
    const bool resumed = CenturyModel::Resume(
        whole_,
        [this](const std::vector<TimerRecord>& records, std::string* error) {
          if (timers_.Restore(records) != 0) {
            *error = "snapshot carries timer tags this driver does not register";
            return false;
          }
          return true;
        },
        model_.report());
    if (!resumed) {
      batches_.ScheduleThrough(config_.horizon);
      for (uint32_t idx = 0; idx < model_.size(); ++idx) {
        DeploySiteAt(idx, sim_.Now());
      }
    }
  }

  // Closes the integral at the horizon and censors the survivors.
  void Finish() {
    Accumulate(config_.horizon);
    model_.Finish();
  }

  CenturyModel& model() { return model_; }

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
  void Accumulate(SimTime now) {
    model_.alive().AdvanceTo(now, static_cast<int64_t>(model_.fleet().alive_count()));
  }

  // --- Domain timers (all routed through the TimerTable) ------------------

  void ArmVisit(SimTime at, uint32_t zone, uint32_t cycle) {
    timers_.Schedule(at, kCenturyTimerVisit, zone, cycle, 0.0,
                     [this, zone] { model_.ZoneVisitAt(zone, sim_.Now(), *this); },
                     kCenturyVisit);
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

  Simulation& sim_;
  const CenturyConfig& config_;
  CenturyModel model_;
  CenturyModel* const whole_[1] = {&model_};  // The checkpoint's one part.
  TimerTable timers_;
  BatchProjectScheduler batches_;
};

// One shard lane: the detailed driver over the lane's column range, on the
// lane's own simulation, with a lane-local report that the main thread
// merges in lane order. A lane records nothing: it runs on a worker thread.
class CenturyShardLane final : public ShardLane {
 public:
  CenturyShardLane(const CenturyConfig& config, uint32_t begin, uint32_t end)
      : sim_(config.seed), driver_(sim_, config, report_, begin, end, /*recorder=*/nullptr) {
    sim_.trace().set_min_level(TraceLevel::kFailure);
    sim_.trace().EnableRetention(false);
  }

  void Setup() override { driver_.Start(); }

  Scheduler& sched() override { return sim_.scheduler(); }

  // Main thread, lanes quiescent: finishes the lane, then adds its integral
  // to `alive` and its counters and survival observations to `out`.
  void FinishInto(SiteSeconds& alive, CenturyReport& out) {
    driver_.Finish();
    driver_.model().MergeInto(alive, out);
  }

 private:
  Simulation sim_;
  CenturyReport report_;  // Lane-local counters and survival observations.
  DetailedCentury driver_;
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
  if (shard.enabled() && snapshot.enabled()) {
    diagnostics.push_back("snapshot checkpoint/resume is not supported by the sharded "
                          "century engine: run with shard.shards = 0 to checkpoint, or use "
                          "the sharded district engine which supports both");
  }
  if (sampling.enabled()) {
    for (std::string& diagnostic : sampling.Validate()) {
      diagnostics.push_back(std::move(diagnostic));
    }
    if (shard.enabled()) {
      diagnostics.push_back(
          "sampling and sharding are mutually exclusive: the sampled engine "
          "advances the whole fleet analytically between windows, and spreads its own "
          "walk over the spare cores");
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
  return RunCenturyEngine<DetailedCentury>(config);
}

CenturyReport RunShardedCenturyScenario(const CenturyConfig& config) {
  std::vector<std::string> diagnostics = config.Validate();
  if (config.shard.shards == 0) {
    diagnostics.push_back("shard.shards is zero: the sharded engine needs at least one lane "
                          "(use RunCenturyScenario for the serial engine)");
  }
  CheckConfigOrDie("century-shard", diagnostics);

  const uint32_t shards = std::min(config.shard.shards, config.fleet_size);
  std::vector<std::unique_ptr<CenturyShardLane>> lanes;
  std::vector<ShardLane*> lane_ptrs;
  const uint32_t per_lane = config.fleet_size / shards;
  const uint32_t remainder = config.fleet_size % shards;
  uint32_t begin = 0;
  for (uint32_t i = 0; i < shards; ++i) {
    const uint32_t end = begin + per_lane + (i < remainder ? 1 : 0);
    lanes.push_back(std::make_unique<CenturyShardLane>(config, begin, end));
    lane_ptrs.push_back(lanes.back().get());
    begin = end;
  }

  ThreadPool pool(ShardWorkerCount(shards, config.shard.workers));
  ShardRunOptions opts;
  opts.horizon = config.horizon;
  opts.replica_progress = config.control.progress;

  CenturyReport report;
  report.events_executed = RunShardLanes(pool, lane_ptrs, opts);
  SiteSeconds alive(config.horizon);
  for (auto& lane : lanes) {
    lane->FinishInto(alive, report);
  }
  alive.FillRates(config.horizon, config.fleet_size, &report.mean_availability,
                  &report.yearly_availability, &report.min_yearly_availability);
  return report;
}

}  // namespace centsim
