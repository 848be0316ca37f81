// Sharded century engine: the embarrassingly-parallel sibling of the
// sharded district. Century sites never interact — each site's trajectory
// depends only on its own entity-keyed lifetime draws and the shared visit
// grid — so the fleet splits into contiguous column ranges with NO
// cross-shard traffic: no bus, no gateway timelines, and NextBound() is
// just each lane's earliest pending event.
//
// Determinism: the serial engine already keys every lifetime draw by
// (site index, unit generation), so lanes reproduce the serial draws
// verbatim with global indices. Counters (failures, replacements,
// deployments, generations) are bit-identical to the serial engine;
// availability means differ from serial in the last float bits only
// because lanes integrate in exact 128-bit microsecond-counts instead of
// event-ordered double sums — which is also what makes them bit-identical
// across any shard/worker/window choice. Kaplan–Meier observations are
// concatenated in lane order (failures then survivors per lane), not the
// serial global event order; the survival curve is order-free, the raw
// observation sequence is not digest-pinned.
//
// Snapshot checkpointing is NOT supported under sharding (the serial
// century's TimerTable capture assumes one scheduler); requesting both is
// a config error, reported fail-fast.

#include "src/core/theseus.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/century_model.h"
#include "src/mgmt/batch_project.h"
#include "src/sim/ensemble.h"
#include "src/sim/shard_coordinator.h"
#include "src/sim/thread_pool.h"

namespace centsim {
namespace {

using U128 = unsigned __int128;

double U128Seconds(U128 us) { return static_cast<double>(us) / 1e6; }

// One lane: the century model over the lane's column range, driven by the
// lane's own scheduler, with the availability integral in exact 128-bit
// microsecond-counts. Counters and survival observations land in a
// lane-local report that the main thread merges in lane order.
class CenturyShardLane final : public ShardLane {
 public:
  CenturyShardLane(const CenturyConfig& config, uint32_t begin, uint32_t end,
                   FlightRecorder* recorder)
      : config_(config),
        sim_(config.seed),
        model_(sim_, config, report_, begin, end, recorder),
        years_(static_cast<uint32_t>(std::ceil(config.horizon.ToYears()))),
        yearly_alive_us_(years_, 0),
        batches_(sim_, config.batch, [](uint32_t, uint32_t) {}) {
    sim_.trace().set_min_level(TraceLevel::kFailure);
    sim_.trace().EnableRetention(false);
    batches_.SetVisitScheduler([this](SimTime at, uint32_t zone, uint32_t) {
      sim_.scheduler().ScheduleAt(
          at, [this, zone] { model_.ZoneVisitAt(zone, sim_.Now(), *this); }, kCenturyVisit);
    });
  }

  // --- ShardLane ----------------------------------------------------------

  void Setup(SimTime cover) override {
    (void)cover;  // No cross-shard lookahead to publish.
    batches_.ScheduleThrough(config_.horizon);
    for (uint32_t ld = 0; ld < model_.size(); ++ld) {
      DeploySiteAt(ld, sim_.Now());
    }
  }

  SimTime NextBound() override { return sim_.scheduler().EarliestPending(); }

  void RunWindow(SimTime barrier, SimTime cover) override {
    (void)cover;
    sim_.scheduler().DrainToBarrier(barrier);
  }

  Scheduler& sched() override { return sim_.scheduler(); }

  // --- Model hooks --------------------------------------------------------

  void DeploySiteAt(uint32_t ld, SimTime at) {
    AccumulateTo(at.micros());
    model_.DeployAt(ld, at);
    RandomStream site_rng = model_.SiteStream(ld);
    const SimTime life = model_.hardware().SampleLife(site_rng).life * model_.LifeScaleAt(at);
    model_.fleet().set_failure_event(
        ld, sim_.scheduler().ScheduleAt(
                at + life,
                [this, ld, life] {
                  model_.fleet().set_failure_event(ld, kInvalidEventId);
                  AccumulateTo(sim_.Now().micros());
                  model_.SiteFailAt(ld, sim_.Now(), life);
                },
                kCenturySiteFail));
  }

  void RetireSiteAt(uint32_t ld, SimTime at) {
    DeviceFleet& fleet = model_.fleet();
    const EventId failure = fleet.failure_event(ld);
    if (failure != kInvalidEventId) {
      sim_.scheduler().Cancel(failure);
      fleet.set_failure_event(ld, kInvalidEventId);
    }
    AccumulateTo(at.micros());
  }

  // --- Main-thread accessors (lanes quiescent) ----------------------------

  // Closes the integral and censors survivors in ascending local (==
  // global) order, exactly like the serial engine's end-of-run sweep.
  void FinishAt(SimTime horizon) {
    AccumulateTo(horizon.micros());
    model_.Finish();
  }

  // Adds the lane's integrals to the order-free totals, and its counters
  // and survival observations to the run's report.
  void MergeInto(U128& alive_us, std::vector<U128>& yearly_alive_us, CenturyReport& out) const {
    alive_us += alive_us_;
    for (uint32_t y = 0; y < years_; ++y) {
      yearly_alive_us[y] += yearly_alive_us_[y];
    }
    out.total_failures += report_.total_failures;
    out.total_replacements += report_.total_replacements;
    out.proactive_replacements += report_.proactive_replacements;
    out.units_deployed += report_.units_deployed;
    out.max_unit_generations = std::max(out.max_unit_generations, report_.max_unit_generations);
    for (const SurvivalObservation& o : report_.unit_survival.observations()) {
      out.unit_survival.Observe(o);
    }
  }

 private:
  void AccumulateTo(int64_t now_us) {
    if (now_us <= last_us_) {
      return;
    }
    const uint64_t alive = model_.fleet().alive_count();
    const U128 span = static_cast<uint64_t>(now_us - last_us_);
    alive_us_ += span * alive;
    const int64_t year_us = SimTime::Years(1).micros();
    int64_t t0 = last_us_;
    while (t0 < now_us) {
      const uint32_t y =
          std::min<uint32_t>(years_ - 1, static_cast<uint32_t>(t0 / year_us));
      const int64_t year_end = (static_cast<int64_t>(y) + 1) * year_us;
      const int64_t seg_end = std::min(now_us, year_end);
      yearly_alive_us_[y] += U128(static_cast<uint64_t>(seg_end - t0)) * alive;
      t0 = seg_end;
    }
    last_us_ = now_us;
  }

  const CenturyConfig& config_;
  Simulation sim_;
  CenturyReport report_;  // Lane-local counters and survival observations.
  CenturyModel model_;
  const uint32_t years_;
  std::vector<U128> yearly_alive_us_;
  BatchProjectScheduler batches_;

  int64_t last_us_ = 0;
  U128 alive_us_ = 0;
};

}  // namespace

CenturyReport RunShardedCenturyScenario(const CenturyConfig& config) {
  std::vector<std::string> diagnostics = config.Validate();
  if (config.shard.shards == 0) {
    diagnostics.push_back("shard.shards is zero: the sharded engine needs at least one lane "
                          "(use RunCenturyScenario for the serial engine)");
  }
  if (config.snapshot.enabled()) {
    diagnostics.push_back("snapshot checkpoint/resume is not supported by the sharded "
                          "century engine: run with shard.shards = 0 to checkpoint, or use "
                          "the sharded district engine which supports both");
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
    FlightRecorder* recorder =
        i < config.shard.shard_recorders.size() ? config.shard.shard_recorders[i] : nullptr;
    lanes.push_back(std::make_unique<CenturyShardLane>(config, begin, end, recorder));
    lane_ptrs.push_back(lanes.back().get());
    begin = end;
  }

  ThreadPool pool(config.shard.workers != 0 ? config.shard.workers : shards);
  ShardWindowOptions opts;
  opts.horizon = config.horizon;
  opts.window =
      config.shard.window.micros() > 0 ? config.shard.window : SimTime::Days(90);
  opts.progress = config.shard.shard_progress;
  opts.replica_progress = config.control.progress;

  CenturyReport report;
  report.events_executed = RunShardWindows(pool, lane_ptrs, opts);

  U128 alive_us = 0;
  std::vector<U128> yearly_alive_us(static_cast<uint32_t>(std::ceil(config.horizon.ToYears())),
                                    0);
  for (auto& lane : lanes) {
    lane->FinishAt(config.horizon);
    lane->MergeInto(alive_us, yearly_alive_us, report);
  }

  const uint32_t years = static_cast<uint32_t>(yearly_alive_us.size());
  const double total_site_seconds = config.horizon.ToSeconds() * config.fleet_size;
  report.mean_availability =
      total_site_seconds > 0 ? U128Seconds(alive_us) / total_site_seconds : 0;
  report.yearly_availability.resize(years);
  const double year_site_seconds = SimTime::Years(1).ToSeconds() * config.fleet_size;
  for (uint32_t y = 0; y < years; ++y) {
    report.yearly_availability[y] = U128Seconds(yearly_alive_us[y]) / year_site_seconds;
    report.min_yearly_availability =
        std::min(report.min_yearly_availability, report.yearly_availability[y]);
  }
  return report;
}

}  // namespace centsim
