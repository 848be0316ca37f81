// The century scenario's model (see theseus.h), written once and shared by
// its two drivers: the detailed driver (DetailedCentury below, theseus.cc),
// which runs the serial engine over the whole fleet, and the sampled engine
// (theseus_sampled.cc), which walks the fleet in blocks of consecutive
// sites.
//
// CenturyModel owns the fleet of sites, the state transitions (each at an
// explicit time), the exact availability integral (SiteSeconds, shared
// with the district model), the `century` snapshot chunks and report
// assembly. A driver keeps only how time advances: which
// events it arms where, how it draws a unit's life, and how it closes a
// unit's alive time. Sites never interact, so the model can cover a whole
// fleet or one contiguous column range (a walk block).
// A `century` checkpoint is fleet state, not timers: an alive slot's
// deadline is its pending failure, and the zone visits follow from the
// config from the time the file names, so either engine resumes either's.

#ifndef SRC_CORE_CENTURY_MODEL_H_
#define SRC_CORE_CENTURY_MODEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/failure_calendar.h"
#include "src/core/fleet.h"
#include "src/core/site_seconds.h"
#include "src/core/theseus.h"
#include "src/mgmt/batch_project.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/simulation.h"

namespace centsim {

// One category per transition kind: the profiler's event category in every
// engine, and the flight-recorder category.
inline constexpr const char* kCenturySiteFail = "century.site_failure";
inline constexpr const char* kCenturyVisit = "century.zone_visit";

class CenturyModel {
 public:
  // The model over sites [begin, end) of the config's fleet: the whole
  // fleet, or one walk block's range (local slot = site index - begin).
  // Rare transitions go to `recorder`: the run's for a whole-fleet model,
  // null for a part of the fleet, which may run on a worker thread.
  CenturyModel(Simulation& sim, const CenturyConfig& config, CenturyReport& report,
               uint32_t begin, uint32_t end, FlightRecorder* recorder);
  CenturyModel(const CenturyModel&) = delete;
  CenturyModel& operator=(const CenturyModel&) = delete;

  CenturyReport& report() { return report_; }
  DeviceFleet& fleet() { return fleet_; }
  const DeviceFleet& fleet() const { return fleet_; }
  const SeriesSystem& hardware() const { return fleet_.class_spec(cls_).hardware; }
  uint32_t size() const { return end_ - begin_; }
  uint32_t zone_count() const { return std::max(1u, config_.batch.zone_count); }
  SiteSeconds& alive() { return alive_; }
  const SiteSeconds& alive() const { return alive_; }

  // --- Transitions at an explicit time ----------------------------------

  // Deploys a new unit at the site; the engine then draws its life from
  // SiteStream(idx), scaled by LifeScaleAt(at), and arms its failure.
  void DeployAt(uint32_t idx, SimTime at) {
    fleet_.DeployAt(idx, at);
    ++report_.units_deployed;
  }

  // The unit's life stream, keyed by (site, unit generation): the same
  // draw whichever engine, lane or window placement takes it.
  RandomStream SiteStream(uint32_t idx) const {
    return rng_.Derive((static_cast<uint64_t>(begin_ + idx) << 20) +
                       fleet_.unit_generation(idx));
  }

  // Later generations last longer (technology improvement per decade).
  double LifeScaleAt(SimTime at) const {
    return config_.life_improvement_per_decade == 1.0
               ? 1.0
               : std::pow(config_.life_improvement_per_decade, at.ToYears() / 10.0);
  }

  // The unit fails `life` after its deployment. The engine has already
  // closed its alive time.
  void SiteFailAt(uint32_t idx, SimTime at, SimTime life) {
    fleet_.MarkFailedAt(idx, at);
    ++report_.total_failures;
    report_.unit_survival.Observe(life, /*failed=*/true);
    if (recorder_ != nullptr) {
      recorder_->Record(kCenturySiteFail, at, begin_ + idx);
    }
  }

  // The site's turn in its zone's maintenance round: a dead unit is
  // replaced; a working one past the proactive refresh age is retired and
  // replaced. `engine` supplies two steps: RetireSiteAt(idx, at) releases
  // the unit's pending failure and closes its alive time, DeploySiteAt(idx,
  // at) deploys a unit and arms its failure.
  template <typename Engine>
  void VisitSiteAt(uint32_t idx, SimTime at, Engine& engine) {
    if (!fleet_.alive(idx)) {
      ++report_.total_replacements;
      engine.DeploySiteAt(idx, at);
      return;
    }
    if (config_.proactive_refresh_age.micros() > 0 &&
        at - fleet_.deployed_at(idx) >= config_.proactive_refresh_age) {
      engine.RetireSiteAt(idx, at);
      report_.unit_survival.Observe(at - fleet_.deployed_at(idx), /*failed=*/false);
      fleet_.RetireAt(idx);
      ++report_.proactive_replacements;
      engine.DeploySiteAt(idx, at);
    }
  }

  // A batch project reaches `zone` (site index modulo zone count): every
  // site of the zone in this model's range, ascending, gets its visit.
  template <typename Engine>
  void ZoneVisitAt(uint32_t zone, SimTime at, Engine& engine) {
    if (recorder_ != nullptr) {
      recorder_->Record(kCenturyVisit, at, zone);
    }
    const uint32_t zones = zone_count();
    for (uint32_t idx = (zone + zones - begin_ % zones) % zones; idx < size(); idx += zones) {
      VisitSiteAt(idx, at, engine);
    }
  }

  // --- Checkpoint/restore (`century` snapshots) --------------------------
  //
  // A checkpoint holds the whole fleet. `parts` are the models that cover
  // it, over consecutive site ranges in site order: one whole-fleet model,
  // or the sampled engine's walk blocks. `run` is the report that counts
  // the checkpoints written and the restore time.

  // Writes a `century` checkpoint at the quiescent `barrier`: `alive` is
  // the integral as of the barrier, and the engine has run no zone visit
  // from `visits_from` on. Slots are gathered in site order, counters
  // summed and survival observations concatenated in part order.
  static void SaveCheckpoint(std::span<CenturyModel* const> parts, SimTime barrier,
                             SimTime visits_from, const SiteSeconds& alive, CenturyReport& run);

  // Restores from the plan's resume snapshot, if there is one: scatters the
  // fleet's slots to their parts and the integral, counters and survival
  // observations to the first part, restores the clock and applies the
  // branch salt to every part. Returns the time from which the file's zone
  // visits are pending, or nothing on a fresh start. Dies on a bad
  // snapshot.
  static std::optional<SimTime> Resume(std::span<CenturyModel* const> parts, CenturyReport& run);

  // Censors the surviving units at the horizon and fills the report's
  // results from the availability integral, over the whole fleet's
  // site-seconds: a part's model fills in the part's share, and the run
  // fills its own report from the merged integral.
  void Finish();

  // After Finish, for a part of the fleet: adds the part's integral to
  // `alive` and its counters and highest generation to `out`, and moves its
  // survival observations after those already in `out`.
  void MergeInto(SiteSeconds& alive, CenturyReport& out);

 private:
  static bool Restore(std::span<CenturyModel* const> parts, const std::string& path,
                      SimTime* visits_from, std::string* error);

  Simulation& sim_;
  const CenturyConfig& config_;
  CenturyReport& report_;
  const uint32_t begin_;
  const uint32_t end_;
  FlightRecorder* recorder_;
  DeviceFleet fleet_;
  uint32_t cls_ = 0;
  RandomStream rng_;
  SiteSeconds alive_;
};

// The detailed engine (theseus.cc): the model over the whole fleet,
// advanced one transition at a time. The scheduler holds only zone visits;
// site failures wait in a FailureCalendar drained between visits, whose
// deadlines a checkpoint stamps and a restore arms back. A proactive
// refresh cancels nothing: the calendar skips the retired unit's failure.
class DetailedCentury {
 public:
  DetailedCentury(Simulation& sim, const CenturyConfig& config, CenturyReport& report);

  // Resumes from the plan's snapshot or deploys every site at year 0,
  // writes a checkpoint at every grid point and runs to the horizon.
  void Run();

  CenturyModel& model() { return model_; }

  // Model hooks (CenturyModel::VisitSiteAt): a deploy draws the unit's
  // life and arms its failure; a retirement closes the unit's alive time.
  void DeploySiteAt(uint32_t idx, SimTime at);
  void RetireSiteAt(uint32_t /*idx*/, SimTime at) { Accumulate(at); }

  // Arms the failure of the site's current unit at `at`.
  void ArmSiteFailure(SimTime at, uint32_t idx) { calendar_.Arm(at, idx); }
  // Runs every visit and live failure at or before `limit`, a visit first
  // at a shared microsecond, and leaves the clock at `limit`.
  void RunTo(SimTime limit);
  // Writes a `century` checkpoint at the quiescent `barrier`, whose visits
  // RunTo has run.
  void SaveCheckpoint(SimTime barrier) {
    calendar_.StampDeadlines();
    CenturyModel::SaveCheckpoint(whole_, barrier, barrier + SimTime::Micros(1), model_.alive(),
                                 model_.report());
  }

 private:
  void Accumulate(SimTime now) {
    model_.alive().AdvanceTo(now, static_cast<int64_t>(model_.fleet().alive_count()));
  }

  Simulation& sim_;
  const CenturyConfig& config_;
  CenturyModel model_;
  CenturyModel* const whole_[1] = {&model_};  // The checkpoint's one part.
  FailureCalendar calendar_;
};

// The sampled engine, which RunCenturyScenario runs when
// config.sampling.enabled(). Alternates measured detailed windows with
// analytic fast-forward (theseus_sampled.cc); per-entity keyed lifetime
// draws make the trajectory reproducible regardless of window placement,
// and checkpoints cut at window barriers restore into either engine. Above
// one walk block (65,536 sites) the Kaplan-Meier observations come in
// block order; the rest of the report is the same at any block split.
CenturyReport RunSampledCenturyScenario(const CenturyConfig& config);

// Runs a whole-fleet engine (detailed or sampled) on a fresh simulation of
// the config's seed, with the config's run control attached for the run's
// duration.
template <typename Engine>
CenturyReport RunCenturyEngine(const CenturyConfig& config) {
  Simulation sim(config.seed);
  sim.trace().set_min_level(TraceLevel::kFailure);
  sim.trace().EnableRetention(false);  // Fleet-scale: counts, not records.
  sim.scheduler().AttachRunControl(config.control);
  CenturyReport report;
  Engine engine(sim, config, report);
  engine.Run();
  // Slot cleared first: no status/watchdog thread can reach the scheduler
  // past this line.
  sim.scheduler().DetachRunControl(config.control);
  return report;
}

}  // namespace centsim

#endif  // SRC_CORE_CENTURY_MODEL_H_
