#include "src/core/district.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "src/core/district_model.h"
#include "src/sim/ensemble.h"
#include "src/sim/thread_pool.h"

namespace centsim {
namespace {

// The roll-out deploys the fleet in batches of at most this many sites, so
// its draw buffers stay the size of a visit's, not of the fleet.
constexpr uint32_t kRollOutBatch = 65536;

// The serial engine: one scheduler for zone visits and gateway
// transitions, every one routed through a TimerTable, and the model's
// failure calendar for unit failures, drained with them by RunTo
// (district_model.h). A checkpoint at a quiescent barrier saves each
// pending timer and failure as a plain record and a restored run re-arms
// them in (time, seq) order — the registry pattern that makes
// save-at-year-N/restore runs bit-identical to straight runs. A failure
// takes its sequence number from the scheduler when it is armed
// (Scheduler::TakeSequence), so the records number failures and timers in
// one arm order. Lifetime streams are keyed by running counters (device
// replacements, gateway failures), so draws depend on the global event
// order. Scheduled closures capture [this, index] — two words, well
// inside the event core's inline buffer.
//
// Device lives are drawn a batch at a time: a zone visit's dead sites, or
// a slice of the roll-out. Each site's key is fixed before any of the
// batch deploys, and a life is a pure function of its key, so a batch that
// reaches SeriesSystem::kParallelLifeGrain is drawn on the spare cores
// (SeriesSystem::SampleLives) and the sites then deploy and arm their
// failures in site order, each failure taking the sequence number it took
// when sites were drawn one at a time. The draw pool starts with the first
// such batch, so a small district starts no thread, and never on a pool
// worker: an ensemble replica or a branch draws inline, as its siblings
// already hold the cores.
class SerialDistrict {
 public:
  SerialDistrict(Simulation& sim, const DistrictConfig& config, DistrictReport& report)
      : sim_(sim),
        config_(config),
        model_(sim, config, report),
        // Timer records exist only to be Save()d; a run that will never
        // write a checkpoint routes timers through untracked (free).
        timers_(sim.scheduler(), config.snapshot.checkpoint_every.micros() > 0),
        // The caller draws a chunk too. A one-core host, and a run on a
        // pool worker, draw inline.
        spare_cores_(ThreadPool::SpareCores()) {
    if (timers_.tracking()) {
      fail_seq_.resize(config.device_count);
    }
  }

  void Run() {
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
      for (const BatchVisit& v : BatchVisits(sim_, DistrictBatches(config_), config_.horizon)) {
        ArmVisit(v.at, v.zone, v.cycle);
      }
      for (uint32_t g = 0; g < model_.gateway_count(); ++g) {
        model_.SetGatewayAt(g, true, sim_.Now());
        ScheduleGatewayFailure(g);
      }
      RollOut();
    }

    const auto wall_start = std::chrono::steady_clock::now();
    if (config_.snapshot.checkpoint_every.micros() > 0) {
      // Checkpoints land on fixed multiples of the period regardless of
      // where the run (re)started, so straight and resumed runs agree on
      // barrier times.
      const int64_t every = config_.snapshot.checkpoint_every.micros();
      for (int64_t next = (sim_.Now().micros() / every + 1) * every;
           next < config_.horizon.micros(); next += every) {
        model_.RunTo(SimTime::Micros(next));
        model_.SaveCheckpoint(SimTime::Micros(next), PendingTimers());
      }
    }
    model_.RunTo(config_.horizon);
    DistrictReport& report = model_.report();
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count() -
        report.save_seconds;
    model_.Finish();
  }

  // Model hook: a visit's dead sites, ascending, at `at` (== Now). The
  // model counts them as replacements afterwards; site k's life is keyed
  // by the count it brings the run to, as if each were counted in turn.
  void RedeployAt(std::span<const uint32_t> sites, SimTime at) {
    uint64_t replacements = model_.report().device_replacements;
    keys_.clear();
    for (uint32_t d : sites) {
      keys_.push_back(DeviceLifeKey(d, ++replacements));
    }
    const std::span<const SimTime> lives = DrawLives(keys_);
    for (size_t k = 0; k < sites.size(); ++k) {
      Deploy(sites[k], at, lives[k]);
    }
  }

 private:
  // --- Device deploys, a batch at a time --------------------------------

  static uint64_t DeviceLifeKey(uint32_t d, uint64_t replacements) {
    return 0x64650000ULL + static_cast<uint64_t>(d) * 977 + replacements;
  }

  // Every site at Now, keyed by the replacement count (zero on a fresh run).
  void RollOut() {
    const uint64_t replacements = model_.report().device_replacements;
    for (uint32_t begin = 0; begin < config_.device_count; begin += kRollOutBatch) {
      const uint32_t end = std::min(config_.device_count, begin + kRollOutBatch);
      keys_.clear();
      for (uint32_t d = begin; d < end; ++d) {
        keys_.push_back(DeviceLifeKey(d, replacements));
      }
      const std::span<const SimTime> lives = DrawLives(keys_);
      for (uint32_t d = begin; d < end; ++d) {
        Deploy(d, sim_.Now(), lives[d - begin]);
      }
    }
  }

  // The lives keyed by `keys`, in order; valid until the next call.
  std::span<const SimTime> DrawLives(std::span<const uint64_t> keys) {
    if (pool_ == nullptr && spare_cores_ > 0 && keys.size() >= SeriesSystem::kParallelLifeGrain) {
      pool_ = std::make_unique<ThreadPool>(spare_cores_);
    }
    lives_.resize(keys.size());
    model_.device_bom().SampleLives(model_.rng(), keys, lives_, pool_.get());
    return lives_;
  }

  void Deploy(uint32_t d, SimTime at, SimTime life) {
    model_.DeployAt(d, at);
    ArmDeviceFailure(at + life, d);
  }

  // --- Domain timers: visits and gateways through the TimerTable, failures
  // through the model's calendar

  void ArmVisit(SimTime at, uint32_t zone, uint32_t cycle) {
    timers_.Schedule(at, kDistrictTimerVisit, zone, cycle, 0.0,
                     [this, zone] { OnZoneVisit(zone); }, kDistrictVisit);
  }

  void ArmGatewayFailure(SimTime at, uint32_t g) {
    timers_.Schedule(at, kDistrictTimerGatewayFail, g, 0, 0.0,
                     [this, g] { OnGatewayFailure(g); }, kDistrictGatewayFail);
  }

  void ArmGatewayRepair(SimTime at, uint32_t g) {
    timers_.Schedule(at, kDistrictTimerGatewayRepair, g, 0, 0.0,
                     [this, g] { OnGatewayRepair(g); }, kDistrictGatewayRepair);
  }

  void ArmDeviceFailure(SimTime at, uint32_t d) {
    model_.ArmFailure(d, at);
    const uint64_t seq = sim_.scheduler().TakeSequence();
    if (!fail_seq_.empty()) {
      fail_seq_[d] = seq;
    }
  }

  // The scheduler's pending timers and the calendar's pending failures,
  // past-horizon ones included, as records in (time, seq) order.
  std::vector<TimerRecord> PendingTimers() const {
    std::vector<TimerRecord> failures;
    model_.calendar().ForEach([&](const FailureCalendar::Entry& e) {
      failures.push_back({kDistrictTimerDeviceFail, e.at_us, fail_seq_[e.slot], e.slot, 0, 0.0});
    });
    return timers_.Save(std::move(failures));
  }

  void RegisterTimerRearms() {
    timers_.Register(kDistrictTimerVisit, [this](const TimerRecord& r) {
      ArmVisit(SimTime::Micros(r.at_us), static_cast<uint32_t>(r.a),
               static_cast<uint32_t>(r.b));
    });
    timers_.Register(kDistrictTimerGatewayFail, [this](const TimerRecord& r) {
      ArmGatewayFailure(SimTime::Micros(r.at_us), static_cast<uint32_t>(r.a));
    });
    timers_.Register(kDistrictTimerGatewayRepair, [this](const TimerRecord& r) {
      ArmGatewayRepair(SimTime::Micros(r.at_us), static_cast<uint32_t>(r.a));
    });
    timers_.Register(kDistrictTimerDeviceFail, [this](const TimerRecord& r) {
      ArmDeviceFailure(SimTime::Micros(r.at_us), static_cast<uint32_t>(r.a));
    });
  }

  // --- Gateway transitions: the model's, plus counter-keyed draws ---------

  void ScheduleGatewayFailure(uint32_t g) {
    RandomStream gw_rng =
        model_.rng().Derive(0x67770000ULL + g * 131 + model_.report().gateway_failures);
    const SimTime life = model_.gateway_bom().SampleLife(gw_rng).life;
    ArmGatewayFailure(sim_.Now() + life, g);
  }

  void OnGatewayFailure(uint32_t g) {
    model_.GatewayFailAt(g, sim_.Now());
    ArmGatewayRepair(sim_.Now() + config_.gateway_repair_delay, g);
  }

  void OnGatewayRepair(uint32_t g) {
    model_.GatewayRepairAt(g, sim_.Now());
    ScheduleGatewayFailure(g);
  }

  void OnZoneVisit(uint32_t zone) { model_.ZoneVisitAt(zone, sim_.Now(), *this); }

  Simulation& sim_;
  const DistrictConfig& config_;
  DistrictModel model_;
  TimerTable timers_;
  // Per site: the sequence number its pending failure took; kept only by a
  // run that writes checkpoints.
  std::vector<uint64_t> fail_seq_;
  const uint32_t spare_cores_;        // Draw workers beside the caller.
  std::unique_ptr<ThreadPool> pool_;  // Started by the first batch at the grain.
  // One batch's life keys and drawn lives.
  std::vector<uint64_t> keys_;
  std::vector<SimTime> lives_;
};

}  // namespace

std::vector<std::string> DistrictConfig::Validate() const {
  std::vector<std::string> diagnostics;
  if (device_count == 0) {
    diagnostics.push_back("device_count is zero: a district needs at least one sensor site");
  }
  if (horizon.micros() <= 0) {
    diagnostics.push_back("non-positive horizon (" + horizon.ToString() +
                          "): set horizon to a positive duration");
  }
  if (area_km2 <= 0.0) {
    diagnostics.push_back("non-positive area_km2: the district needs area to site sensors");
  }
  if (zone_grid == 0) {
    diagnostics.push_back("zone_grid is zero: batch projects need at least one zone");
  }
  if (gateway_range_m <= 0.0) {
    diagnostics.push_back("non-positive gateway_range_m: the gateway grid cannot be planned "
                          "from a zero coverage range");
  }
  if (batch_cycle.micros() <= 0) {
    diagnostics.push_back("non-positive batch_cycle: device replacement rides the roadworks "
                          "cadence, which must be positive");
  }
  if (gateway_repair_delay.micros() < 0) {
    diagnostics.push_back("negative gateway_repair_delay: repairs cannot complete in the past");
  }
  for (std::string& diagnostic : snapshot.Validate()) {
    diagnostics.push_back(std::move(diagnostic));
  }
  if (shard.enabled() && metrics != nullptr) {
    diagnostics.push_back("metrics registry is not supported by the sharded district engine: "
                          "run with shard.shards = 0 to bind metrics");
  }
  if (sampling.enabled()) {
    for (std::string& diagnostic : sampling.Validate()) {
      diagnostics.push_back(std::move(diagnostic));
    }
    if (shard.enabled()) {
      diagnostics.push_back(
          "sampling and sharding are mutually exclusive: pick one engine");
    }
    if (snapshot.checkpoint_every.micros() > 0) {
      diagnostics.push_back(
          "sampled district runs restore from serial checkpoints but do not "
          "write them: clear snapshot.checkpoint_every");
    }
  }
  return diagnostics;
}

DistrictReport RunDistrictScenario(const DistrictConfig& config) {
  if (config.sampling.enabled()) {
    return RunSampledDistrictScenario(config);
  }
  if (config.shard.enabled()) {
    return RunShardedDistrictScenario(config);
  }
  CheckConfigOrDie("district", config.Validate());
  return RunDistrictEngine<SerialDistrict>(config);
}

}  // namespace centsim
