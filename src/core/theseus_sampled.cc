// Sampled time advance for the century scenario (DESIGN.md, "Sampled
// simulation").
//
// The detailed driver (theseus.cc) runs every site failure and zone visit
// as an event and samples each unit life as the minimum of ~8
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
// Walk blocks: the fleet is split into fixed blocks of kWalkBlockSites
// consecutive sites. A block holds a CenturyModel over its range with a
// block-local report, its own fail_at_ column and its own transition
// calendar. Sites
// never interact, so the roll-out, every fast-forward span and the final
// censoring run the blocks on the caller and the spare cores. The visit
// schedule, the survival table, the controller, the window hooks and the
// window accumulators stay here on the main thread; window visits and
// armed failures address the blocks in block order. At the horizon the
// blocks merge: exact integrals and counters summed, the highest
// generation, and the Kaplan-Meier observations spliced in block order.
//
// Determinism: unit lives are drawn from per-entity keyed streams
// (rng_.Derive(site << 20 | generation), the serial engine's key) through
// a SurvivalTable, so a site's trajectory is byte-identical regardless of
// where detailed windows are placed — a zero-length fast-forward is a
// no-op — and of which thread walks its block. The blocks depend only on
// fleet_size, so the report is the same inline and on the pool at any CPU
// count. The draw *pattern* differs from the serial engine (one table
// lookup vs SampleLife's component minimum), so sampled and serial runs
// agree in distribution, not bit-for-bit.
//
// Checkpoints are cut at detailed-window barriers in the serial chunk
// layout: pending walk state (visits >= barrier, per-site next failures)
// is synthesized into the serial engine's timer records, so a sampled
// checkpoint restores into either engine and vice versa (closes the
// snapshot subsystem's warm-start hook).

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/century_model.h"
#include "src/sim/ensemble.h"
#include "src/sim/thread_pool.h"

namespace centsim {
namespace {

// Sites per walk block (the last block holds the rest). Every fleet up to
// this size is one block, walked inline.
constexpr uint32_t kWalkBlockSites = 65536;

class SampledCentury {
 public:
  SampledCentury(Simulation& sim, const CenturyConfig& config, CenturyReport& report)
      : sim_(sim),
        config_(config),
        report_(report),
        // The caller walks a block too. A one-core host, and a run on a
        // pool worker, walk inline.
        spare_cores_(ThreadPool::SpareCores()) {
    // Only a block that is the whole fleet records: more blocks walk on
    // worker threads.
    const bool one_block = config.fleet_size <= kWalkBlockSites;
    for (uint32_t begin = 0; begin < config.fleet_size; begin += kWalkBlockSites) {
      const uint32_t end = std::min(config.fleet_size, begin + kWalkBlockSites);
      blocks_.push_back(std::make_unique<Block>(*this, begin, end,
                                                one_block ? config.control.recorder : nullptr));
      models_.push_back(&blocks_.back()->model());
    }
    const SeriesSystem& hardware = models_.front()->hardware();
    life_table_ = SurvivalTable::Build(
        [&hardware](SimTime t) { return hardware.Survival(t); });
  }

  void Run() {
    RecordVisitSchedule();
    const bool resumed = CenturyModel::Resume(
        models_,
        [this](const std::vector<TimerRecord>& records, std::string* error) {
          return TakeCheckpointState(records, error);
        },
        report_);
    if (!resumed) {
      // Initial roll-out: all sites deployed in year 0, serial-identically.
      const SimTime now = sim_.Now();
      ForEachBlock([now](Block& block) { block.RollOut(now); });
    }

    if (config_.snapshot.checkpoint_every.micros() > 0) {
      const int64_t every = config_.snapshot.checkpoint_every.micros();
      next_grid_us_ = (sim_.Now().micros() / every + 1) * every;
    }

    SamplingController controller(sim_.scheduler(), config_.sampling);
    controller.RegisterDomain("reliability", [this](SimTime from, SimTime to) {
      ForEachBlock([from, to](Block& block) { block.Walk(from, to); });
    });
    controller.SetWindowHooks(
        [this](SimTime w0, SimTime w1) { BeginWindow(w0, w1); },
        [this](SimTime w0, SimTime w1) { EndWindow(w0, w1); });
    controller.TrackMetric("availability", &avail_samples_);
    controller.TrackMetric("failures_per_device_year", &fail_samples_);
    controller.TrackMetric("replacements_per_device_year", &repl_samples_);
    controller.AttachProgress(config_.control.progress);
    const SamplingOutcome outcome = controller.Run(config_.horizon);

    ForEachBlock([](Block& block) { block.Finish(); });
    SiteSeconds alive(config_.horizon);
    for (const std::unique_ptr<Block>& block : blocks_) {
      block->model().MergeInto(alive, report_);
    }
    alive.FillRates(config_.horizon, config_.fleet_size, &report_.mean_availability,
                    &report_.yearly_availability, &report_.min_yearly_availability);
    report_.events_executed = sim_.scheduler().executed_count();
    report_.sampled = true;
    report_.windows_measured = outcome.windows_measured;
    report_.sim_skipped_us = outcome.sim_skipped_us;
    report_.ci_converged = outcome.converged;
    report_.metric_cis = controller.MetricSummaries();
  }

 private:
  // Transition calendar entry: a coarse time-bucketed queue of upcoming
  // site transitions, so fast-forward spans and window arming only touch
  // sites that actually transition instead of scanning the whole fleet. A
  // site has one pending entry at a time: a live unit's failure or refresh
  // (QueueNextTransition), or a dead site's revive. Entries are invalidated
  // lazily — a processed or superseded entry simply fails its validity
  // check when scanned (see Block::Walk).
  struct CalEntry {
    int64_t at_us;
    uint32_t idx;   // Block-local site.
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

  // One walk block: the model over sites [begin, end) with its own report,
  // fail_at_ column and calendar. Its walk touches nothing outside the
  // block but the engine's read-only schedule and table, so blocks walk in
  // parallel. Its window hooks run on the main thread and keep the
  // engine's window accumulators.
  class Block {
   public:
    Block(SampledCentury& engine, uint32_t begin, uint32_t end, FlightRecorder* recorder)
        : engine_(engine),
          begin_(begin),
          model_(engine.sim_, engine.config_, report_, begin, end, recorder),
          fail_at_(end - begin, SimTime::Max()),
          calendar_(static_cast<size_t>(engine.config_.horizon.micros() / kCalBucketUs) + 1) {}

    CenturyModel& model() { return model_; }

    void RollOut(SimTime at) {
      for (uint32_t idx = 0; idx < model_.size(); ++idx) {
        DeploySiteAt(idx, at);
      }
    }

    // --- Model hooks ------------------------------------------------------
    //
    // Each runs at an explicit time `at`: sim_.Now() inside a detailed
    // window, the walk's event time during fast-forward. Column effects are
    // identical either way, which is what makes window placement
    // irrelevant.

    void DeploySiteAt(uint32_t idx, SimTime at) {
      model_.DeployAt(idx, at);
      RandomStream site_rng = model_.SiteStream(idx);
      fail_at_[idx] = at + engine_.life_table_.Sample(site_rng) * model_.LifeScaleAt(at);
      QueueNextTransition(idx, at);
      if (engine_.in_window_) {
        ++engine_.win_open_count_;
        engine_.win_open_start_sum_s_ += at.ToSeconds();
        if (fail_at_[idx] < engine_.win_w1_) {
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
        engine_.sim_.scheduler().Cancel(failure);
        fleet.set_failure_event(idx, kInvalidEventId);
      }
      CloseAliveInterval(idx, at);
    }

    // --- Detailed windows -------------------------------------------------

    // Arms the failures pending inside [w0, w1). The calendar hands us
    // exactly those (plus stale entries, skipped by the validity check)
    // without an O(fleet) scan. A unit whose pending entry is a refresh
    // cannot fail before it, and the window's visit performs the refresh.
    void ArmWindowFailures(SimTime w0, SimTime w1) {
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

    // --- Fast-forward walk ------------------------------------------------

    // Advances the block's failure/replacement process over [from, to)
    // with the window handlers' transitions, no scheduler involved. Only
    // sites with a transition inside the span are touched — O(transitions)
    // per span instead of O(sites). Entries are validated on scan: a
    // failure entry must match the site's live pending failure, a refresh
    // entry must find the site alive and at least the refresh age old, a
    // revive entry must find the site still dead; anything else was
    // consumed by a detailed window or superseded, and is skipped. Per-site
    // event order is preserved because a site's next entry is only pushed
    // when its previous transition is processed; cross-site order within a
    // bucket is immaterial (sites are independent).
    void Walk(SimTime from, SimTime to) {
      const uint32_t zone_count = model_.zone_count();
      const size_t b_last = BucketFor(to - SimTime::Micros(1));
      // Per-zone cursor into the visit schedule, rebased once per bucket: a
      // bucket spans a couple of maintenance rounds at most, so the
      // per-fail "first visit strictly after" lookup is a short forward
      // scan instead of a binary search over the century's whole schedule.
      std::vector<uint32_t> visit_base(zone_count, 0);
      for (size_t b = BucketFor(from); b <= b_last; ++b) {
        std::vector<CalEntry>& bucket = calendar_[b];
        if (!bucket.empty()) {
          const SimTime bucket_lo =
              std::max(from, SimTime::Micros(static_cast<int64_t>(b) * kCalBucketUs));
          for (uint32_t z = 0; z < zone_count; ++z) {
            const std::vector<SimTime>& visits = engine_.zone_visits_[z];
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
            uint32_t k = visit_base[(begin_ + en.idx) % zone_count];
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
                at - model_.fleet().deployed_at(en.idx) < engine_.config_.proactive_refresh_age) {
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

    // At the horizon: closes the survivors' open alive intervals, then
    // censors them.
    void Finish() {
      for (uint32_t idx = 0; idx < model_.size(); ++idx) {
        if (model_.fleet().alive(idx)) {
          model_.alive().AddSpan(model_.fleet().deployed_at(idx), engine_.config_.horizon, 1);
        }
      }
      model_.Finish();
    }

    // --- Checkpoint/restore -----------------------------------------------

    // Adds the open alive intervals' shares up to `barrier` to `alive`.
    void AddOpenIntervals(SiteSeconds& alive, SimTime barrier) const {
      const DeviceFleet& fleet = model_.fleet();
      for (uint32_t idx = 0; idx < model_.size(); ++idx) {
        if (fleet.alive(idx)) {
          alive.AddSpan(fleet.deployed_at(idx), barrier, 1);
        }
      }
    }

    // Each alive site's next failure as the serial engine's timer record.
    void AppendFailureRecords(std::vector<TimerRecord>& records) const {
      for (uint32_t idx = 0; idx < model_.size(); ++idx) {
        if (model_.fleet().alive(idx)) {
          records.push_back({kCenturyTimerSiteFail, fail_at_[idx].micros(), 0, begin_ + idx,
                             static_cast<uint64_t>(PendingLife(idx).micros()), 0.0});
        }
      }
    }

    void TakeFailure(uint32_t idx, SimTime at) { fail_at_[idx] = at; }

    // Once the restored failures are taken: backs the open intervals'
    // prefixes out of the block's integral, so the eventual full-interval
    // close does not double-count them, and rebuilds the calendar from the
    // restored columns. Alive sites queue their next transition (refresh
    // or failure) no earlier than the barrier; dead sites queue their
    // revive at the first visit at or after the barrier (any earlier visit
    // would have revived them before the snapshot was cut).
    void ResumeAt(SimTime barrier) {
      const DeviceFleet& fleet = model_.fleet();
      for (uint32_t idx = 0; idx < model_.size(); ++idx) {
        if (fleet.alive(idx)) {
          model_.alive().AddSpan(fleet.deployed_at(idx), barrier, -1);
          QueueNextTransition(idx, barrier);
        } else {
          const std::vector<SimTime>& visits = ZoneVisits(idx);
          const auto it = std::lower_bound(visits.begin(), visits.end(), barrier);
          if (it != visits.end()) {
            CalendarPush(kCalRevive, idx, *it);
          }
        }
      }
    }

   private:
    const std::vector<SimTime>& ZoneVisits(uint32_t idx) const {
      return engine_.zone_visits_[(begin_ + idx) % model_.zone_count()];
    }

    // Closes the alive interval that started at deployed_at(idx): the
    // block's integral always, plus the clipped in-window share while
    // measuring.
    void CloseAliveInterval(uint32_t idx, SimTime end) {
      const SimTime start = model_.fleet().deployed_at(idx);
      model_.alive().AddSpan(start, end, 1);
      if (engine_.in_window_) {
        const SimTime clipped = std::max(start, engine_.win_w0_);
        if (end > clipped) {
          engine_.win_alive_seconds_ += (end - clipped).ToSeconds();
        }
        --engine_.win_open_count_;
        engine_.win_open_start_sum_s_ -= clipped.ToSeconds();
      }
    }

    size_t BucketFor(SimTime t) const {
      const int64_t us = std::max<int64_t>(t.micros(), 0);
      return std::min(calendar_.size() - 1, static_cast<size_t>(us / kCalBucketUs));
    }

    void CalendarPush(uint32_t kind, uint32_t idx, SimTime at) {
      if (at >= engine_.config_.horizon) {
        return;  // Transitions at/after the horizon never run.
      }
      calendar_[BucketFor(at)].push_back({at.micros(), idx, kind});
    }

    // Queues the live unit's one pending transition, no earlier than
    // `from`: its proactive refresh at the zone's first visit at or after
    // the unit reaches the refresh age, when that visit comes no later than
    // its failure (a visit wins the tie), else its failure.
    void QueueNextTransition(uint32_t idx, SimTime from) {
      const SimTime age = engine_.config_.proactive_refresh_age;
      if (age > SimTime()) {
        const std::vector<SimTime>& visits = ZoneVisits(idx);
        const auto it = std::lower_bound(visits.begin(), visits.end(),
                                         std::max(from, model_.fleet().deployed_at(idx) + age));
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

    void ArmWindowFailure(uint32_t idx) {
      Scheduler& scheduler = engine_.sim_.scheduler();
      model_.fleet().set_failure_event(
          idx, scheduler.ScheduleAt(
                   fail_at_[idx],
                   [this, idx] {
                     model_.fleet().set_failure_event(idx, kInvalidEventId);
                     const SimTime at = engine_.sim_.Now();
                     SiteFailAt(idx, at);
                     // The site's revive is its zone's first visit strictly
                     // after the failure (an equal-time visit fired first,
                     // as a no-op on the then-alive site). In-window visits
                     // run as scheduler events; a revive beyond the window
                     // is parked for the walk.
                     const std::vector<SimTime>& visits = ZoneVisits(idx);
                     const auto it = std::upper_bound(visits.begin(), visits.end(), at);
                     if (it != visits.end() && *it >= engine_.win_w1_) {
                       CalendarPush(kCalRevive, idx, *it);
                     }
                   },
                   kCenturySiteFail));
    }

    SampledCentury& engine_;
    const uint32_t begin_;
    CenturyReport report_;  // Block-local counters and survival observations.
    CenturyModel model_;
    // Per-site walk column: the pending unit's failure time (valid while
    // the site is alive). Its life is derived (PendingLife), not stored.
    std::vector<SimTime> fail_at_;
    std::vector<std::vector<CalEntry>> calendar_;
  };

  // Runs fn on every block, on the caller and the spare cores. The pool
  // starts with the first call over more than one block, so a one-block
  // fleet starts no thread.
  template <typename Fn>
  void ForEachBlock(const Fn& fn) {
    if (pool_ == nullptr && blocks_.size() > 1 && spare_cores_ > 0) {
      pool_ = std::make_unique<ThreadPool>(
          std::min(spare_cores_, static_cast<uint32_t>(blocks_.size() - 1)));
    }
    ParallelFor(pool_.get(), blocks_.size(), [this, &fn](size_t b) { fn(*blocks_[b]); });
  }

  // The fleet's failures, replacements (failed or proactive) and alive
  // units so far, over every block.
  struct Tally {
    uint64_t failures = 0;
    uint64_t replacements = 0;
    uint64_t alive = 0;
  };
  Tally Count() {
    Tally tally;
    for (const std::unique_ptr<Block>& block : blocks_) {
      const CenturyReport& r = block->model().report();
      tally.failures += r.total_failures;
      tally.replacements += r.total_replacements + r.proactive_replacements;
      tally.alive += block->model().fleet().alive_count();
    }
    return tally;
  }

  // The batch project's full visit schedule, the serial engine's, in time
  // order.
  void RecordVisitSchedule() {
    visits_ = BatchVisits(sim_, config_.batch, config_.horizon);
    std::stable_sort(visits_.begin(), visits_.end(),
                     [](const BatchVisit& a, const BatchVisit& b) { return a.at < b.at; });
    zone_visits_.assign(models_.front()->zone_count(), {});
    for (const BatchVisit& v : visits_) {
      zone_visits_[v.zone].push_back(v.at);
    }
  }

  // --- Detailed windows ---------------------------------------------------

  // A window's zone visit: every block's sites of the zone, in block order.
  // A lone block's model records the visit; with more blocks none does, so
  // it is recorded once here.
  void VisitZone(uint32_t zone) {
    const SimTime at = sim_.Now();
    if (blocks_.size() > 1 && config_.control.recorder != nullptr) {
      config_.control.recorder->Record(kCenturyVisit, at, zone);
    }
    for (const std::unique_ptr<Block>& block : blocks_) {
      block->model().ZoneVisitAt(zone, at, *block);
    }
  }

  void BeginWindow(SimTime w0, SimTime w1) {
    in_window_ = true;
    win_w0_ = w0;
    win_w1_ = w1;
    win_alive_seconds_ = 0.0;
    const Tally tally = Count();
    win_fail_base_ = tally.failures;
    win_repl_base_ = tally.replacements;
    // Every open interval at w0 clips to w0; transitions inside the window
    // keep the count/start-sum pair current so EndWindow closes in O(1).
    win_open_count_ = static_cast<int64_t>(tally.alive);
    win_open_start_sum_s_ = static_cast<double>(win_open_count_) * w0.ToSeconds();

    // Visits armed before failures: scheduler insertion order is the
    // equal-time tie-break, and the walk mirrors it (visit wins ties).
    const auto first = std::lower_bound(
        visits_.begin(), visits_.end(), w0,
        [](const BatchVisit& v, SimTime t) { return v.at < t; });
    for (auto it = first; it != visits_.end() && it->at < w1; ++it) {
      const uint32_t zone = it->zone;
      sim_.scheduler().ScheduleAt(it->at, [this, zone] { VisitZone(zone); }, kCenturyVisit);
    }
    for (const std::unique_ptr<Block>& block : blocks_) {
      block->ArmWindowFailures(w0, w1);
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
    const Tally tally = Count();
    avail_samples_.Add(device_seconds > 0 ? alive_s / device_seconds : 0.0);
    fail_samples_.Add(static_cast<double>(tally.failures - win_fail_base_) / device_years);
    repl_samples_.Add(static_cast<double>(tally.replacements - win_repl_base_) / device_years);
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

  // --- Checkpoint/restore -------------------------------------------------

  // Pending walk state rendered as the serial engine's timer records:
  // every visit at or after the barrier, plus each alive site's next
  // failure. Sorted by time with visits before failures on ties, the same
  // order the serial engine's table would re-arm them in.
  std::vector<TimerRecord> SyntheticTimerRecords(SimTime barrier) const {
    std::vector<TimerRecord> records;
    const auto first = std::lower_bound(
        visits_.begin(), visits_.end(), barrier,
        [](const BatchVisit& v, SimTime t) { return v.at < t; });
    for (auto it = first; it != visits_.end(); ++it) {
      records.push_back({kCenturyTimerVisit, it->at.micros(), 0, it->zone, it->cycle, 0.0});
    }
    for (const std::unique_ptr<Block>& block : blocks_) {
      block->AppendFailureRecords(records);
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
  // brought fully up to the barrier (the blocks' integrals summed, open
  // intervals' shares added) and written with last_change == barrier, and
  // the pending walk state is rendered as the serial engine's timer
  // records.
  void SaveCheckpoint(SimTime barrier) {
    SiteSeconds at_barrier(config_.horizon);
    for (const std::unique_ptr<Block>& block : blocks_) {
      at_barrier.Add(block->model().alive());
      block->AddOpenIntervals(at_barrier, barrier);
    }
    at_barrier.last_change = barrier;
    CenturyModel::SaveCheckpoint(models_, barrier, at_barrier, SyntheticTimerRecords(barrier),
                                 report_);
  }

  // Called by the model's restore once the clock sits on the barrier.
  bool TakeCheckpointState(const std::vector<TimerRecord>& records, std::string* error) {
    // Convert the serial integral, restored into the first block, into
    // interval form: bring it up to the barrier (a serial save integrates
    // only to its last transition); each block then backs out its open
    // intervals' prefixes.
    const SimTime barrier = sim_.Now();
    SiteSeconds& restored = models_.front()->alive();
    restored.AddSpan(restored.last_change, barrier, static_cast<int64_t>(Count().alive));

    // Timer records -> walk columns. Visit records are redundant with the
    // re-recorded schedule (jitter draws are keyed identically), so only
    // failure records carry state; the model's restore has checked each
    // against the fleet, so its life is fail time minus deployment.
    for (const TimerRecord& r : records) {
      if (r.tag == kCenturyTimerSiteFail) {
        blocks_[r.a / kWalkBlockSites]->TakeFailure(static_cast<uint32_t>(r.a % kWalkBlockSites),
                                                    SimTime::Micros(r.at_us));
      } else if (r.tag != kCenturyTimerVisit) {
        *error = "snapshot carries timer tags this driver does not register";
        return false;
      }
    }
    ForEachBlock([barrier](Block& block) { block.ResumeAt(barrier); });
    return true;
  }

  Simulation& sim_;
  const CenturyConfig& config_;
  CenturyReport& report_;  // The run's: the blocks merge into it.
  SurvivalTable life_table_;

  // Walk blocks in site order, and their models (the checkpoint's parts).
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<CenturyModel*> models_;
  const uint32_t spare_cores_;        // Walk workers beside the caller.
  std::unique_ptr<ThreadPool> pool_;  // Started by the first multi-block call.

  // Pre-recorded batch visit schedule (time-sorted; per-zone views).
  std::vector<BatchVisit> visits_;
  std::vector<std::vector<SimTime>> zone_visits_;

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
  return RunCenturyEngine<SampledCentury>(config);
}

}  // namespace centsim
