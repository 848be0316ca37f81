// Sampled time advance for the century scenario (ROADMAP item 2).
//
// The detailed driver (theseus.cc) pushes every site failure and zone visit
// through the event heap and samples each unit life as the minimum of ~8
// per-component inverse-CDF draws. This engine runs the same scenario as a
// two-level machine driven by a SamplingController (src/sim/sampling.h):
//
//   detailed window   the zone visits and pending site failures that fall
//                     inside [w0, w1) are armed on the real scheduler and
//                     drained to the barrier — identical event semantics
//                     to the serial engine, and the window's availability/
//                     failure-rate/replacement-rate land in SampleSets;
//   fast-forward      between windows the same transitions are advanced by
//                     a walk over a time-bucketed transition calendar that
//                     holds each site's one pending transition (failure,
//                     proactive refresh or revive) — no heap, no closures,
//                     one SurvivalTable draw per deployment.
//
// Determinism: unit lives are drawn from per-entity keyed streams
// (rng_.Derive(site << 20 | generation), the serial engine's key) through
// a SurvivalTable, so a site's trajectory is byte-identical regardless of
// where detailed windows are placed — a zero-length fast-forward is a
// no-op. The draw *pattern* differs from the serial engine (one table
// lookup vs SampleLife's component minimum), so sampled and serial runs
// agree in distribution, not bit-for-bit.
//
// Checkpoints are cut at detailed-window barriers in the serial chunk
// layout: pending walk state (visits >= barrier, per-site next failures)
// is synthesized into the serial engine's timer records, so a sampled
// checkpoint restores into either engine and vice versa (closes the
// snapshot subsystem's warm-start hook).

#include <algorithm>
#include <vector>

#include "src/core/century_model.h"
#include "src/sim/ensemble.h"

namespace centsim {
namespace {

class SampledCentury {
 public:
  SampledCentury(Simulation& sim, const CenturyConfig& config, CenturyReport& report)
      : sim_(sim),
        config_(config),
        model_(sim, config, report, 0, config.fleet_size, config.control.recorder) {
    const SeriesSystem& hardware = model_.hardware();
    life_table_ = SurvivalTable::Build(
        [&hardware](SimTime t) { return hardware.Survival(t); });
    fail_at_.assign(config.fleet_size, SimTime::Max());
    calendar_.resize(static_cast<size_t>(config.horizon.micros() / kCalBucketUs) + 1);
  }

  void Run() {
    RecordVisitSchedule();
    const bool resumed =
        model_.Resume([this](const std::vector<TimerRecord>& records, std::string* error) {
          return TakeCheckpointState(records, error);
        });
    if (!resumed) {
      // Initial roll-out: all sites deployed in year 0, serial-identically.
      for (uint32_t idx = 0; idx < config_.fleet_size; ++idx) {
        DeploySiteAt(idx, sim_.Now());
      }
    }

    if (config_.snapshot.checkpoint_every.micros() > 0) {
      const int64_t every = config_.snapshot.checkpoint_every.micros();
      next_grid_us_ = (sim_.Now().micros() / every + 1) * every;
    }

    SamplingController controller(sim_.scheduler(), config_.sampling);
    controller.RegisterDomain(
        "reliability", [this](SimTime from, SimTime to) { WalkCalendar(from, to); });
    controller.SetWindowHooks(
        [this](SimTime w0, SimTime w1) { BeginWindow(w0, w1); },
        [this](SimTime w0, SimTime w1) { EndWindow(w0, w1); });
    controller.TrackMetric("availability", &avail_samples_);
    controller.TrackMetric("failures_per_device_year", &fail_samples_);
    controller.TrackMetric("replacements_per_device_year", &repl_samples_);
    controller.AttachProgress(config_.control.progress);
    const SamplingOutcome outcome = controller.Run(config_.horizon);

    // Close the survivors' open alive intervals at the horizon.
    for (uint32_t idx = 0; idx < config_.fleet_size; ++idx) {
      if (model_.fleet().alive(idx)) {
        model_.alive().AddSpan(model_.fleet().deployed_at(idx), config_.horizon, 1);
      }
    }
    model_.Finish();

    CenturyReport& report = model_.report();
    report.sampled = true;
    report.windows_measured = outcome.windows_measured;
    report.sim_skipped_us = outcome.sim_skipped_us;
    report.ci_converged = outcome.converged;
    report.metric_cis = controller.MetricSummaries();
  }

  // --- Model hooks --------------------------------------------------------
  //
  // Each runs at an explicit time `at`: sim_.Now() inside a detailed
  // window, the walk's event time during fast-forward. Column effects are
  // identical either way, which is what makes window placement irrelevant.

  void DeploySiteAt(uint32_t idx, SimTime at) {
    model_.DeployAt(idx, at);
    RandomStream site_rng = model_.SiteStream(idx);
    fail_at_[idx] = at + life_table_.Sample(site_rng) * model_.LifeScaleAt(at);
    QueueNextTransition(idx, at);
    if (in_window_) {
      ++win_open_count_;
      win_open_start_sum_s_ += at.ToSeconds();
      if (fail_at_[idx] < win_w1_) {
        ArmWindowFailure(idx);
      }
    }
  }

  // A proactive refresh: a window may have this site's failure armed;
  // release it with the unit being retired.
  void RetireSiteAt(uint32_t idx, SimTime at) {
    DeviceFleet& fleet = model_.fleet();
    const EventId failure = fleet.failure_event(idx);
    if (failure != kInvalidEventId) {
      sim_.scheduler().Cancel(failure);
      fleet.set_failure_event(idx, kInvalidEventId);
    }
    CloseAliveInterval(idx, at);
  }

 private:
  struct Visit {
    SimTime at;
    uint32_t zone = 0;
    uint32_t cycle = 0;
  };

  // The batch project's full visit schedule, recorded without touching the
  // scheduler: SetVisitScheduler replaces event placement and draws the
  // per-visit jitter identically to the serial engine's ScheduleThrough.
  void RecordVisitSchedule() {
    BatchProjectScheduler batches(sim_, config_.batch, [](uint32_t, uint32_t) {});
    batches.SetVisitScheduler([this](SimTime at, uint32_t zone, uint32_t cycle) {
      visits_.push_back({at, zone, cycle});
    });
    batches.ScheduleThrough(config_.horizon);
    std::stable_sort(visits_.begin(), visits_.end(),
                     [](const Visit& a, const Visit& b) { return a.at < b.at; });
    zone_visits_.assign(model_.zone_count(), {});
    for (const Visit& v : visits_) {
      zone_visits_[v.zone].push_back(v.at);
    }
  }

  const std::vector<SimTime>& ZoneVisits(uint32_t idx) const {
    return zone_visits_[idx % model_.zone_count()];
  }

  // Closes the alive interval that started at deployed_at(idx): global
  // integral always, plus the clipped in-window share while measuring.
  void CloseAliveInterval(uint32_t idx, SimTime end) {
    const SimTime start = model_.fleet().deployed_at(idx);
    model_.alive().AddSpan(start, end, 1);
    if (in_window_) {
      const SimTime clipped = std::max(start, win_w0_);
      if (end > clipped) {
        win_alive_seconds_ += (end - clipped).ToSeconds();
      }
      --win_open_count_;
      win_open_start_sum_s_ -= clipped.ToSeconds();
    }
  }

  size_t BucketFor(SimTime t) const {
    const int64_t us = std::max<int64_t>(t.micros(), 0);
    return std::min(calendar_.size() - 1, static_cast<size_t>(us / kCalBucketUs));
  }

  void CalendarPush(uint32_t kind, uint32_t idx, SimTime at) {
    if (at >= config_.horizon) {
      return;  // Transitions at/after the horizon never run.
    }
    calendar_[BucketFor(at)].push_back({at.micros(), idx, kind});
  }

  // Queues the live unit's one pending transition, no earlier than `from`:
  // its proactive refresh at the zone's first visit at or after the unit
  // reaches the refresh age, when that visit comes no later than its
  // failure (a visit wins the tie), else its failure.
  void QueueNextTransition(uint32_t idx, SimTime from) {
    const SimTime age = config_.proactive_refresh_age;
    if (age > SimTime()) {
      const std::vector<SimTime>& visits = ZoneVisits(idx);
      const auto it = std::lower_bound(
          visits.begin(), visits.end(), std::max(from, model_.fleet().deployed_at(idx) + age));
      if (it != visits.end() && *it <= fail_at_[idx]) {
        CalendarPush(kCalRefresh, idx, *it);
        return;
      }
    }
    CalendarPush(kCalFail, idx, fail_at_[idx]);
  }

  // The pending unit's sampled life, derived: it was deployed at
  // deployed_at and fails at fail_at_, both in integer micros.
  SimTime PendingLife(uint32_t idx) const {
    return fail_at_[idx] - model_.fleet().deployed_at(idx);
  }

  void SiteFailAt(uint32_t idx, SimTime at) {
    CloseAliveInterval(idx, at);
    model_.SiteFailAt(idx, at, PendingLife(idx));
  }

  // --- Detailed windows ---------------------------------------------------

  void ArmWindowFailure(uint32_t idx) {
    model_.fleet().set_failure_event(
        idx, sim_.scheduler().ScheduleAt(
                 fail_at_[idx],
                 [this, idx] {
                   model_.fleet().set_failure_event(idx, kInvalidEventId);
                   const SimTime at = sim_.Now();
                   SiteFailAt(idx, at);
                   // The site's revive is its zone's first visit strictly
                   // after the failure (an equal-time visit fired first, as
                   // a no-op on the then-alive site). In-window visits run
                   // as scheduler events; a revive beyond the window is
                   // parked for the walk.
                   const std::vector<SimTime>& visits = ZoneVisits(idx);
                   const auto it = std::upper_bound(visits.begin(), visits.end(), at);
                   if (it != visits.end() && *it >= win_w1_) {
                     CalendarPush(kCalRevive, idx, *it);
                   }
                 },
                 kCenturySiteFail));
  }

  void BeginWindow(SimTime w0, SimTime w1) {
    in_window_ = true;
    win_w0_ = w0;
    win_w1_ = w1;
    win_alive_seconds_ = 0.0;
    const CenturyReport& report = model_.report();
    win_fail_base_ = report.total_failures;
    win_repl_base_ = report.total_replacements + report.proactive_replacements;
    // Every open interval at w0 clips to w0; transitions inside the window
    // keep the count/start-sum pair current so EndWindow closes in O(1).
    win_open_count_ = model_.fleet().alive_count();
    win_open_start_sum_s_ = static_cast<double>(win_open_count_) * w0.ToSeconds();

    // Visits armed before failures: scheduler insertion order is the
    // equal-time tie-break, and the walk mirrors it (visit wins ties).
    const auto first = std::lower_bound(
        visits_.begin(), visits_.end(), w0,
        [](const Visit& v, SimTime t) { return v.at < t; });
    for (auto it = first; it != visits_.end() && it->at < w1; ++it) {
      const uint32_t zone = it->zone;
      sim_.scheduler().ScheduleAt(
          it->at, [this, zone] { model_.ZoneVisitAt(zone, sim_.Now(), *this); },
          kCenturyVisit);
    }
    // Only sites with a pending failure inside the window need arming;
    // the calendar hands us exactly those (plus stale entries, skipped by
    // the validity check) without an O(fleet) scan. A unit whose pending
    // entry is a refresh cannot fail before it, and the window's visit
    // performs the refresh.
    const size_t b_last = BucketFor(w1 - SimTime::Micros(1));
    for (size_t b = BucketFor(w0); b <= b_last; ++b) {
      for (const CalEntry& en : calendar_[b]) {
        const SimTime at = SimTime::Micros(en.at_us);
        if (en.kind != kCalFail || at < w0 || at >= w1) {
          continue;
        }
        if (model_.fleet().alive(en.idx) && fail_at_[en.idx] == at) {
          ArmWindowFailure(en.idx);
        }
      }
    }
  }

  void EndWindow(SimTime w0, SimTime w1) {
    // Intervals still open at the barrier contribute their clipped share:
    // count * w1 minus the sum of their clipped starts, maintained
    // incrementally by DeploySiteAt/CloseAliveInterval.
    const double alive_s =
        win_alive_seconds_ +
        static_cast<double>(win_open_count_) * w1.ToSeconds() - win_open_start_sum_s_;
    const double device_seconds = (w1 - w0).ToSeconds() * config_.fleet_size;
    const double device_years = (w1 - w0).ToYears() * config_.fleet_size;
    const CenturyReport& report = model_.report();
    avail_samples_.Add(device_seconds > 0 ? alive_s / device_seconds : 0.0);
    fail_samples_.Add(static_cast<double>(report.total_failures - win_fail_base_) /
                      device_years);
    repl_samples_.Add(
        static_cast<double>(report.total_replacements + report.proactive_replacements -
                            win_repl_base_) /
        device_years);
    in_window_ = false;

    // Sampled checkpoints are cut at window barriers: the first barrier at
    // or after each serial grid point gets one. Once sampling converges
    // (no more windows), no further checkpoints are written.
    if (next_grid_us_ > 0 && w1.micros() >= next_grid_us_ &&
        w1 < config_.horizon) {
      SaveCheckpoint(w1);
      const int64_t every = config_.snapshot.checkpoint_every.micros();
      next_grid_us_ = (w1.micros() / every + 1) * every;
    }
  }

  // --- Fast-forward walk --------------------------------------------------

  // Advances every site's failure/replacement process over [from, to)
  // with the window handlers' transitions, no scheduler involved. Only
  // sites with a transition inside the span are touched — O(transitions)
  // per span instead of O(fleet). Entries are validated on scan: a failure
  // entry must match the site's live pending failure, a refresh entry must
  // find the site alive and at least the refresh age old, a revive entry
  // must find the site still dead; anything else was consumed by a
  // detailed window or superseded, and is skipped. Per-site event order is
  // preserved because a site's next entry is only pushed when its previous
  // transition is processed; cross-site order within a bucket is
  // immaterial (sites are independent).
  void WalkCalendar(SimTime from, SimTime to) {
    const uint32_t zone_count = model_.zone_count();
    const size_t b_last = BucketFor(to - SimTime::Micros(1));
    // Per-zone cursor into the visit schedule, rebased once per bucket: a
    // bucket spans a couple of maintenance rounds at most, so the per-fail
    // "first visit strictly after" lookup is a short forward scan instead
    // of a binary search over the century's whole schedule.
    std::vector<uint32_t> visit_base(zone_count, 0);
    for (size_t b = BucketFor(from); b <= b_last; ++b) {
      std::vector<CalEntry>& bucket = calendar_[b];
      if (!bucket.empty()) {
        const SimTime bucket_lo =
            std::max(from, SimTime::Micros(static_cast<int64_t>(b) * kCalBucketUs));
        for (uint32_t z = 0; z < zone_count; ++z) {
          const std::vector<SimTime>& visits = zone_visits_[z];
          visit_base[z] = static_cast<uint32_t>(
              std::lower_bound(visits.begin(), visits.end(), bucket_lo) - visits.begin());
        }
      }
      // Index loop: inline revives and deploys may append to this bucket.
      for (size_t e = 0; e < bucket.size(); ++e) {
        if (e + kWalkPrefetchAhead < bucket.size()) {
          const uint32_t ahead = bucket[e + kWalkPrefetchAhead].idx;
          model_.fleet().PrefetchLifecycle(ahead);
          __builtin_prefetch(fail_at_.data() + ahead, 1);
        }
        const CalEntry en = bucket[e];
        const SimTime at = SimTime::Micros(en.at_us);
        if (at < from || at >= to) {
          continue;
        }
        if (en.kind == kCalFail) {
          if (!model_.fleet().alive(en.idx) || fail_at_[en.idx] != at) {
            continue;  // Stale: consumed in a window or superseded.
          }
          SiteFailAt(en.idx, at);
          // Revive at the zone's first visit strictly after the failure
          // (an equal-time visit was a no-op on the then-alive site).
          const std::vector<SimTime>& visits = ZoneVisits(en.idx);
          uint32_t k = visit_base[en.idx % zone_count];
          while (k < visits.size() && visits[k] <= at) {
            ++k;
          }
          if (k == visits.size()) {
            continue;  // No maintenance round ever reaches it again.
          }
          if (visits[k] < to) {
            model_.VisitSiteAt(en.idx, visits[k], *this);  // Queues the next entry.
          } else {
            CalendarPush(kCalRevive, en.idx, visits[k]);
          }
        } else if (en.kind == kCalRefresh) {
          if (!model_.fleet().alive(en.idx) ||
              at - model_.fleet().deployed_at(en.idx) < config_.proactive_refresh_age) {
            continue;  // Stale: the unit failed or was already refreshed.
          }
          model_.VisitSiteAt(en.idx, at, *this);  // Retires, censors, redeploys.
        } else {
          if (model_.fleet().alive(en.idx)) {
            continue;  // Already revived by an in-window visit.
          }
          model_.VisitSiteAt(en.idx, at, *this);
        }
      }
      if ((static_cast<int64_t>(b) + 1) * kCalBucketUs <= to.micros()) {
        // Fully processed: release the bucket (and its stale entries).
        std::vector<CalEntry>().swap(bucket);
      }
    }
  }

  // --- Checkpoint/restore -------------------------------------------------

  // Pending walk state rendered as the serial engine's timer records:
  // every visit at or after the barrier, plus each alive site's next
  // failure. Sorted by time with visits before failures on ties, the same
  // order the serial engine's table would re-arm them in.
  std::vector<TimerRecord> SyntheticTimerRecords(SimTime barrier) const {
    std::vector<TimerRecord> records;
    const auto first = std::lower_bound(
        visits_.begin(), visits_.end(), barrier,
        [](const Visit& v, SimTime t) { return v.at < t; });
    for (auto it = first; it != visits_.end(); ++it) {
      records.push_back({kCenturyTimerVisit, it->at.micros(), 0, it->zone, it->cycle, 0.0});
    }
    for (uint32_t idx = 0; idx < config_.fleet_size; ++idx) {
      if (model_.fleet().alive(idx)) {
        records.push_back({kCenturyTimerSiteFail, fail_at_[idx].micros(), 0, idx,
                           static_cast<uint64_t>(PendingLife(idx).micros()), 0.0});
      }
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const TimerRecord& a, const TimerRecord& b) {
                       if (a.at_us != b.at_us) {
                         return a.at_us < b.at_us;
                       }
                       return a.tag == kCenturyTimerVisit && b.tag != kCenturyTimerVisit;
                     });
    for (size_t i = 0; i < records.size(); ++i) {
      records[i].seq = i;
    }
    return records;
  }

  // Checkpoints use the serial layout: the interval-form integral is
  // brought fully up to the barrier (open intervals' shares added into a
  // copy) and written with last_change == barrier, and the pending walk
  // state is rendered as the serial engine's timer records.
  void SaveCheckpoint(SimTime barrier) {
    SiteSeconds at_barrier = model_.alive();
    for (uint32_t idx = 0; idx < config_.fleet_size; ++idx) {
      if (model_.fleet().alive(idx)) {
        at_barrier.AddSpan(model_.fleet().deployed_at(idx), barrier, 1);
      }
    }
    at_barrier.last_change = barrier;
    model_.SaveCheckpoint(barrier, at_barrier, SyntheticTimerRecords(barrier));
  }

  // Called by the model's restore once the clock sits on the barrier.
  bool TakeCheckpointState(const std::vector<TimerRecord>& records, std::string* error) {
    // Convert the serial integral into interval form: bring it up to the
    // barrier (a serial save integrates only to its last transition), then
    // back out each open interval's prefix so the eventual full-interval
    // close does not double-count it.
    const SimTime barrier = sim_.Now();
    const DeviceFleet& fleet = model_.fleet();
    SiteSeconds& alive = model_.alive();
    alive.AddSpan(alive.last_change, barrier, static_cast<int64_t>(fleet.alive_count()));
    for (uint32_t idx = 0; idx < config_.fleet_size; ++idx) {
      if (fleet.alive(idx)) {
        alive.AddSpan(fleet.deployed_at(idx), barrier, -1);
      }
    }

    // Timer records -> walk column. Visit records are redundant with the
    // re-recorded schedule (jitter draws are keyed identically), so only
    // failure records carry state; the model's restore has checked each
    // against the fleet, so its life is fail time minus deployment.
    for (const TimerRecord& r : records) {
      if (r.tag == kCenturyTimerSiteFail) {
        fail_at_[static_cast<uint32_t>(r.a)] = SimTime::Micros(r.at_us);
      } else if (r.tag != kCenturyTimerVisit) {
        *error = "snapshot carries timer tags this driver does not register";
        return false;
      }
    }

    // Rebuild the transition calendar from the restored columns: alive
    // sites queue their next transition (refresh or failure) no earlier
    // than the barrier; dead sites queue their revive at the first visit
    // at or after the barrier (any earlier visit would have revived them
    // before the snapshot was cut).
    for (uint32_t idx = 0; idx < config_.fleet_size; ++idx) {
      if (fleet.alive(idx)) {
        QueueNextTransition(idx, barrier);
      } else {
        const std::vector<SimTime>& visits = ZoneVisits(idx);
        const auto it = std::lower_bound(visits.begin(), visits.end(), barrier);
        if (it != visits.end()) {
          CalendarPush(kCalRevive, idx, *it);
        }
      }
    }
    return true;
  }

  Simulation& sim_;
  const CenturyConfig& config_;
  CenturyModel model_;
  SurvivalTable life_table_;

  // Pre-recorded batch visit schedule (time-sorted; per-zone views).
  std::vector<Visit> visits_;
  std::vector<std::vector<SimTime>> zone_visits_;

  // Per-site walk column: the pending unit's failure time (valid while the
  // site is alive). Its life is derived (PendingLife), not stored.
  std::vector<SimTime> fail_at_;

  // Transition calendar: a coarse time-bucketed queue of upcoming site
  // transitions, so fast-forward spans and window arming only touch sites
  // that actually transition instead of scanning the whole fleet. A site
  // has one pending entry at a time: a live unit's failure or refresh
  // (QueueNextTransition), or a dead site's revive. Entries are
  // invalidated lazily — a processed or superseded entry simply fails its
  // validity check when scanned (see WalkCalendar).
  struct CalEntry {
    int64_t at_us;
    uint32_t idx;
    uint32_t kind;  // kCalFail, kCalRevive or kCalRefresh.
  };
  static constexpr uint32_t kCalFail = 0;
  static constexpr uint32_t kCalRevive = 1;
  static constexpr uint32_t kCalRefresh = 2;
  static constexpr int64_t kCalBucketUs = 14LL * 24 * 3600 * 1000000;  // 14 days.
  // While the walk runs a bucket's entry e it prefetches the fleet and
  // fail_at_ lines of entry e + kWalkPrefetchAhead, so the random misses of
  // consecutive transitions overlap. 32 measured no better than 16.
  static constexpr size_t kWalkPrefetchAhead = 16;
  std::vector<std::vector<CalEntry>> calendar_;

  // Detailed-window state.
  bool in_window_ = false;
  SimTime win_w0_;
  SimTime win_w1_;
  double win_alive_seconds_ = 0.0;
  // Open alive intervals at the current instant: count and the sum of
  // their window-clipped starts (seconds), so EndWindow is O(1).
  int64_t win_open_count_ = 0;
  double win_open_start_sum_s_ = 0.0;
  uint64_t win_fail_base_ = 0;
  uint64_t win_repl_base_ = 0;

  // Per-window metric observations (the controller reads these).
  SampleSet avail_samples_;
  SampleSet fail_samples_;
  SampleSet repl_samples_;

  int64_t next_grid_us_ = 0;  // 0 = checkpointing off.
};

}  // namespace

CenturyReport RunSampledCenturyScenario(const CenturyConfig& config) {
  CheckConfigOrDie("century-sampled", config.Validate());
  if (!config.sampling.enabled()) {
    CheckConfigOrDie("century-sampled",
                     {"RunSampledCenturyScenario requires sampling.mode == kSampled"});
  }
  return RunCenturyEngine<SampledCentury>(config);
}

}  // namespace centsim
