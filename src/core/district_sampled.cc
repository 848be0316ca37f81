// Sampled time advance for the district scenario (ROADMAP item 2).
//
// Same two-level machine as the sampled century engine
// (theseus_sampled.cc): a SamplingController alternates measured detailed
// windows — device failures, gateway fail/repair cycles, and batch visits
// armed on the real scheduler — with fast-forward spans where the same
// transitions are advanced by a heap-merged walk in global time order.
// Both levels drive the shared DistrictModel (district_model.h), whose
// exact integer integrals (span x count at every change) do not depend on
// where windows fall; a window's samples are rates of the integrals'
// growth over it. This engine keeps only the windows, the walk and its
// keyed draws.
//
// RNG keying: the serial district derives lifetime streams from global
// counters (gateway_failures, device_replacements), which makes draws
// depend on event order across the whole city. The sampled engine instead
// keys every draw per entity — device streams by (slot, unit_generation),
// gateway streams by (gateway, per-gateway cycle ordinal) — so a
// trajectory is reproducible regardless of where detailed windows fall
// (zero-length fast-forward is a no-op). Like the sharded engine, sampled
// results therefore agree with the serial engine in distribution, not
// bit-for-bit.
//
// Snapshots: a sampled run restores from a serial "district" checkpoint
// but does not write checkpoints — DistrictConfig validation rejects the
// combination. The file is state, so it maps straight onto the walk
// columns: an alive slot's deadline is its unit's failure time, the
// column the walk reads; each gateway's record is its next transition;
// and the visits after the barrier, which the serial run had not reached,
// are taken from the config.

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <queue>
#include <span>
#include <tuple>
#include <vector>

#include "src/core/district_model.h"
#include "src/reliability/survival.h"
#include "src/sim/ensemble.h"

namespace centsim {
namespace {

class SampledDistrict {
 public:
  SampledDistrict(Simulation& sim, const DistrictConfig& config, DistrictReport& report)
      : sim_(sim),
        config_(config),
        model_(sim, config, report),
        dev_root_(model_.rng().Derive(1)),
        gw_root_(model_.rng().Derive(2)) {
    const SeriesSystem& device_bom = model_.device_bom();
    dev_table_ = SurvivalTable::Build(
        [&device_bom](SimTime t) { return device_bom.Survival(t); });
    const SeriesSystem& gateway_bom = model_.gateway_bom();
    gw_table_ = SurvivalTable::Build(
        [&gateway_bom](SimTime t) { return gateway_bom.Survival(t); });
    gw_next_at_.assign(model_.gateway_count(), SimTime::Max());
    gw_ordinal_.assign(model_.gateway_count(), 0);
  }

  void Run() {
    std::vector<TimerRecord> gateways;
    const std::optional<SimTime> visits_from = model_.Resume(&gateways);
    RecordVisitSchedule(visits_from.value_or(SimTime()));
    if (visits_from) {
      // The model has checked one record per gateway, its next transition.
      for (const TimerRecord& r : gateways) {
        gw_next_at_[r.a] = SimTime::Micros(r.at_us);
      }
      // Per-entity roots follow a branch salt's re-key of the model root.
      dev_root_ = model_.rng().Derive(1);
      gw_root_ = model_.rng().Derive(2);
    } else {
      for (uint32_t g = 0; g < model_.gateway_count(); ++g) {
        model_.SetGatewayAt(g, true, sim_.Now());
        gw_next_at_[g] = sim_.Now() + SampleGatewayLife(g);
      }
      for (uint32_t d = 0; d < config_.device_count; ++d) {
        DeployDeviceAt(d, sim_.Now());
      }
    }

    const auto wall_start = std::chrono::steady_clock::now();
    SamplingController controller(sim_.scheduler(), config_.sampling);
    controller.RegisterDomain(
        "district", [this](SimTime from, SimTime to) { Walk(from, to); });
    controller.SetWindowHooks(
        [this](SimTime w0, SimTime w1) { BeginWindow(w0, w1); },
        [this](SimTime w0, SimTime w1) { EndWindow(w0, w1); });
    controller.TrackMetric("service_availability", &service_samples_);
    controller.TrackMetric("device_availability", &device_samples_);
    controller.TrackMetric("device_failures_per_device_year", &fail_samples_);
    controller.AttachProgress(config_.control.progress);
    const SamplingOutcome outcome = controller.Run(config_.horizon);
    DistrictReport& report = model_.report();
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    model_.Finish();

    report.sampled = true;
    report.windows_measured = outcome.windows_measured;
    report.sim_skipped_us = outcome.sim_skipped_us;
    report.ci_converged = outcome.converged;
    report.metric_cis = controller.MetricSummaries();
  }

  // Model hook: redeploys a visit's dead sites one at a time.
  void RedeployAt(std::span<const uint32_t> sites, SimTime at) {
    for (uint32_t d : sites) {
      DeployDeviceAt(d, at);
    }
  }

 private:
  // Deploys the site's unit and arms its keyed failure draw, which the
  // fleet keeps as the slot's deadline.
  void DeployDeviceAt(uint32_t d, SimTime at) {
    model_.DeployAt(d, at);
    model_.fleet().set_deadline(d, at + SampleDeviceLife(d));
    ArmNext(kDevFail, d, model_.fleet().deadline(d));
  }

  // Event kinds, also the equal-time tie-break order (windows arm in this
  // order; the walk heap sorts by it). Sub-microsecond-jittered continuous
  // event times make exact ties vanishingly rare either way.
  enum Kind : uint8_t { kVisit = 0, kGwFail = 1, kGwRepair = 2, kDevFail = 3 };
  enum class Phase : uint8_t { kIdle, kWindow, kWalk };
  using WalkEvent = std::tuple<int64_t, uint8_t, uint32_t>;  // (at_us, kind, entity).

  // The visit schedule in time order from `from` on: every visit of a
  // fresh run, or those a resumed run's file left pending.
  void RecordVisitSchedule(SimTime from) {
    visits_ = BatchVisits(sim_, DistrictBatches(config_), config_.horizon, from);
    std::stable_sort(visits_.begin(), visits_.end(),
                     [](const BatchVisit& a, const BatchVisit& b) { return a.at < b.at; });
  }

  // Per-entity keyed draws (see file comment): one NextDouble per life.
  SimTime SampleDeviceLife(uint32_t d) {
    RandomStream stream = dev_root_.Derive((static_cast<uint64_t>(d) << 24) |
                                           model_.fleet().unit_generation(d));
    return dev_table_.Sample(stream);
  }

  SimTime SampleGatewayLife(uint32_t g) {
    RandomStream stream =
        gw_root_.Derive((static_cast<uint64_t>(g) << 24) | gw_ordinal_[g]);
    ++gw_ordinal_[g];
    return gw_table_.Sample(stream);
  }

  // Arms a successor transition in whichever machine is running: the real
  // scheduler inside a window (clipped to the barrier — the controller
  // needs a quiescent, empty queue to jump the clock), the walk heap
  // during fast-forward (clipped to the walk span). Outside both, columns
  // alone carry the state and the next window/walk picks it up.
  void ArmNext(Kind kind, uint32_t entity, SimTime at) {
    if (phase_ == Phase::kWindow) {
      if (at < win_w1_) {
        Scheduler& sched = sim_.scheduler();
        switch (kind) {
          case kGwFail:
            sched.ScheduleAt(at, [this, entity] { GatewayFailAt(entity, sim_.Now()); },
                             kDistrictGatewayFail);
            break;
          case kGwRepair:
            sched.ScheduleAt(at, [this, entity] { GatewayRepairAt(entity, sim_.Now()); },
                             kDistrictGatewayRepair);
            break;
          case kDevFail:
            sched.ScheduleAt(at, [this, entity] { model_.DeviceFailAt(entity, sim_.Now()); },
                             kDistrictDeviceFail);
            break;
          case kVisit:
            sched.ScheduleAt(at, [this, entity] { ZoneVisitAt(entity, sim_.Now()); },
                             kDistrictVisit);
            break;
        }
      }
    } else if (phase_ == Phase::kWalk) {
      if (at < walk_to_) {
        heap_.push({at.micros(), static_cast<uint8_t>(kind), entity});
      }
    }
  }

  // --- Transitions: the model's, plus keyed successor draws ---------------

  void GatewayFailAt(uint32_t g, SimTime at) {
    model_.GatewayFailAt(g, at);
    gw_next_at_[g] = at + config_.gateway_repair_delay;
    ArmNext(kGwRepair, g, gw_next_at_[g]);
  }

  void GatewayRepairAt(uint32_t g, SimTime at) {
    model_.GatewayRepairAt(g, at);
    gw_next_at_[g] = at + SampleGatewayLife(g);
    ArmNext(kGwFail, g, gw_next_at_[g]);
  }

  void ZoneVisitAt(uint32_t zone, SimTime at) { model_.ZoneVisitAt(zone, at, *this); }

  // --- Detailed windows ---------------------------------------------------

  void BeginWindow(SimTime w0, SimTime w1) {
    phase_ = Phase::kWindow;
    win_w1_ = w1;
    model_.AccumulateTo(w0);
    win_service_base_ = model_.service_seconds().total;
    win_alive_base_ = model_.alive_seconds().total;
    win_fail_base_ = model_.report().device_failures;

    // Arm in kind order — the walk heap's equal-time tie-break.
    const auto first = std::lower_bound(
        visits_.begin(), visits_.end(), w0,
        [](const BatchVisit& v, SimTime t) { return v.at < t; });
    for (auto it = first; it != visits_.end() && it->at < w1; ++it) {
      ArmNext(kVisit, it->zone, it->at);
    }
    for (uint32_t g = 0; g < gw_next_at_.size(); ++g) {
      if (gw_next_at_[g] < w1) {
        ArmNext(model_.gateway_up(g) ? kGwFail : kGwRepair, g, gw_next_at_[g]);
      }
    }
    const DeviceFleet& fleet = model_.fleet();
    for (uint32_t d = 0; d < config_.device_count; ++d) {
      if (fleet.alive(d) && fleet.deadline(d) < w1) {
        ArmNext(kDevFail, d, fleet.deadline(d));
      }
    }
  }

  void EndWindow(SimTime w0, SimTime w1) {
    model_.AccumulateTo(w1);
    const double device_years = (w1 - w0).ToYears() * config_.device_count;
    service_samples_.Add(SiteSeconds::Rate(model_.service_seconds().total - win_service_base_,
                                           w1 - w0, config_.device_count));
    device_samples_.Add(SiteSeconds::Rate(model_.alive_seconds().total - win_alive_base_,
                                          w1 - w0, config_.device_count));
    fail_samples_.Add(
        static_cast<double>(model_.report().device_failures - win_fail_base_) / device_years);
    phase_ = Phase::kIdle;
  }

  // --- Fast-forward walk --------------------------------------------------

  void Walk(SimTime from, SimTime to) {
    phase_ = Phase::kWalk;
    walk_to_ = to;
    // Seed the heap from the columns, plus the visit cursor.
    size_t vi = static_cast<size_t>(
        std::lower_bound(visits_.begin(), visits_.end(), from,
                         [](const BatchVisit& v, SimTime t) { return v.at < t; }) -
        visits_.begin());
    if (vi < visits_.size() && visits_[vi].at < to) {
      heap_.push({visits_[vi].at.micros(), kVisit, static_cast<uint32_t>(vi)});
    }
    for (uint32_t g = 0; g < gw_next_at_.size(); ++g) {
      if (gw_next_at_[g] >= from && gw_next_at_[g] < to) {
        heap_.push({gw_next_at_[g].micros(),
                    static_cast<uint8_t>(model_.gateway_up(g) ? kGwFail : kGwRepair), g});
      }
    }
    const DeviceFleet& fleet = model_.fleet();
    for (uint32_t d = 0; d < config_.device_count; ++d) {
      if (fleet.alive(d) && fleet.deadline(d) >= from && fleet.deadline(d) < to) {
        heap_.push({fleet.deadline(d).micros(), kDevFail, d});
      }
    }
    while (!heap_.empty()) {
      const auto [at_us, kind, entity] = heap_.top();
      heap_.pop();
      const SimTime at = SimTime::Micros(at_us);
      switch (static_cast<Kind>(kind)) {
        case kVisit: {
          ZoneVisitAt(visits_[entity].zone, at);
          const size_t next = entity + 1;
          if (next < visits_.size() && visits_[next].at < to) {
            heap_.push({visits_[next].at.micros(), kVisit, static_cast<uint32_t>(next)});
          }
          break;
        }
        case kGwFail:
          GatewayFailAt(entity, at);
          break;
        case kGwRepair:
          GatewayRepairAt(entity, at);
          break;
        case kDevFail:
          model_.DeviceFailAt(entity, at);
          break;
      }
    }
    phase_ = Phase::kIdle;
  }

  Simulation& sim_;
  const DistrictConfig& config_;
  DistrictModel model_;
  RandomStream dev_root_;
  RandomStream gw_root_;
  SurvivalTable dev_table_;
  SurvivalTable gw_table_;

  // Walk columns: each entity's next pending transition. A device's is its
  // fleet slot's deadline, valid while it is alive.
  std::vector<BatchVisit> visits_;       // Pending schedule, time-sorted.
  std::vector<SimTime> gw_next_at_;      // Fail when up, repair when down.
  std::vector<uint32_t> gw_ordinal_;     // Life draws consumed per gateway.

  Phase phase_ = Phase::kIdle;
  SimTime win_w1_;
  SimTime walk_to_;
  // The integrals at the window's start.
  SiteSeconds::I128 win_service_base_ = 0;
  SiteSeconds::I128 win_alive_base_ = 0;
  uint64_t win_fail_base_ = 0;
  std::priority_queue<WalkEvent, std::vector<WalkEvent>, std::greater<WalkEvent>> heap_;

  SampleSet service_samples_;
  SampleSet device_samples_;
  SampleSet fail_samples_;
};

}  // namespace

DistrictReport RunSampledDistrictScenario(const DistrictConfig& config) {
  CheckConfigOrDie("district-sampled", config.Validate());
  return RunDistrictEngine<SampledDistrict>(config);
}

}  // namespace centsim
