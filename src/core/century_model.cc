#include "src/core/century_model.h"

#include <chrono>

#include "src/core/fleet_codec.h"
#include "src/sim/ensemble.h"
#include "src/snapshot/snapshot.h"
#include "src/telemetry/run_manifest.h"

namespace centsim {
namespace {

// The lifetime RNG root every engine derives its per-site streams from.
constexpr uint64_t kLifeStream = 0x7468657365757300ULL;

// `century` snapshot chunk tags.
constexpr uint32_t kFleetChunk = SnapshotTag('f', 'l', 'e', 't');
// The exact integer integral and the counters. Earlier formats carried a
// double integral under 'accu'; the reader refuses a file without 'aliv'.
constexpr uint32_t kAliveChunk = SnapshotTag('a', 'l', 'i', 'v');
constexpr uint32_t kSurvivalChunk = SnapshotTag('s', 'u', 'r', 'v');
constexpr uint32_t kTimerChunk = SnapshotTag('t', 'i', 'm', 'r');
constexpr uint32_t kSchedChunk = SnapshotTag('s', 'c', 'h', 'd');

// Structural fields the fleet build and visit pre-scheduling bake into a
// run. Policy fields read at event time (proactive_refresh_age,
// life_improvement_per_decade) and the engine choice are absent — branches
// vary those, and serial and sampled runs interchange snapshots.
std::string CenturyStructuralDigest(const CenturyConfig& config) {
  ByteWriter w;
  w.U64(config.seed);
  w.U32(config.fleet_size);
  w.I64(config.horizon.micros());
  w.U8(static_cast<uint8_t>(config.device_class));
  w.U32(config.batch.zone_count);
  w.I64(config.batch.cycle_period.micros());
  w.I64(config.batch.visit_jitter.micros());
  return StructuralDigestHex(w);
}

}  // namespace

CenturyModel::CenturyModel(Simulation& sim, const CenturyConfig& config, CenturyReport& report,
                           uint32_t begin, uint32_t end, FlightRecorder* recorder)
    : sim_(sim),
      config_(config),
      report_(report),
      begin_(begin),
      end_(end),
      recorder_(recorder),
      fleet_(sim),
      rng_(sim.StreamFor(kLifeStream)),
      alive_(config.horizon) {
  DeviceClassSpec spec;
  spec.name = "century-site";
  spec.hardware = config.device_class == DeviceClassKind::kBatteryPowered
                      ? SeriesSystem::BatteryPoweredNode()
                      : SeriesSystem::EnergyHarvestingNode();
  cls_ = fleet_.InternClass(spec);
  fleet_.Reserve(size());
  // Zone partition: site index modulo zone count (uniform spread).
  for (uint32_t idx = begin; idx < end; ++idx) {
    fleet_.Add(cls_, 0.0, 0.0, idx % zone_count(), HarvesterModel());
  }
}

void CenturyModel::SaveCheckpoint(SimTime barrier, const SiteSeconds& alive,
                                  const std::vector<TimerRecord>& timers) {
  const auto save_start = std::chrono::steady_clock::now();
  SnapshotMeta meta;
  meta.experiment = "century";
  meta.library_version = kCentsimVersion;
  meta.structural_digest = CenturyStructuralDigest(config_);
  meta.barrier_us = barrier.micros();
  meta.seed = config_.seed;
  SnapshotWriter writer(std::move(meta));

  ByteWriter fleet;
  fleet.U64(config_.fleet_size);
  for (uint32_t idx = 0; idx < config_.fleet_size; ++idx) {
    EncodeFleetSlot(fleet_.SaveSlotState(idx), fleet);
  }
  fleet.U64(fleet_.class_count());
  for (uint32_t c = 0; c < fleet_.class_count(); ++c) {
    fleet.U64(fleet_.class_replacements(c));
  }
  writer.Add(kFleetChunk, fleet);

  ByteWriter acc;
  acc.I64(alive.last_change.micros());
  alive.Encode(acc);
  acc.U64(report_.total_failures);
  acc.U64(report_.total_replacements);
  acc.U64(report_.proactive_replacements);
  acc.U64(report_.units_deployed);
  writer.Add(kAliveChunk, acc);

  ByteWriter surv;
  const auto& observations = report_.unit_survival.observations();
  surv.U64(observations.size());
  for (const SurvivalObservation& o : observations) {
    surv.I64(o.time.micros());
    surv.U8(o.failed ? 1 : 0);
  }
  writer.Add(kSurvivalChunk, surv);

  ByteWriter tr;
  TimerTable::Encode(timers, tr);
  writer.Add(kTimerChunk, tr);

  ByteWriter sched;
  sched.I64(barrier.micros());
  sched.U64(sim_.scheduler().executed_count());
  sched.U64(sim_.scheduler().late_schedule_count());
  writer.Add(kSchedChunk, sched);

  std::string path;
  const uint64_t bytes =
      WriteCheckpoint(writer, config_.snapshot.checkpoint_dir, barrier.micros(), &path);
  if (bytes == 0) {
    return;
  }
  ++report_.checkpoints_written;
  report_.last_checkpoint_bytes = bytes;
  report_.last_checkpoint_path = path;
  report_.save_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - save_start).count();
}

bool CenturyModel::Resume(const RearmFn& rearm) {
  const std::string path = ResolveResumePath(config_.snapshot);
  if (path.empty()) {
    return false;
  }
  const auto restore_start = std::chrono::steady_clock::now();
  std::string error;
  if (!Restore(path, rearm, &error)) {
    CheckConfigOrDie("century", {"cannot resume from " + path + ": " + error});
  }
  report_.restore_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - restore_start).count();
  return true;
}

bool CenturyModel::Restore(const std::string& path, const RearmFn& rearm, std::string* error) {
  SnapshotReader reader;
  if (!OpenCheckpoint(reader, path, "century", CenturyStructuralDigest(config_), error)) {
    return false;
  }
  if (!reader.HasChunk(kAliveChunk)) {
    *error = "snapshot has no 'aliv' chunk (the exact integer availability integral); it "
             "was written in an earlier format";
    return false;
  }

  ByteReader fleet = reader.Chunk(kFleetChunk);
  if (fleet.U64() != config_.fleet_size) {
    *error = "snapshot fleet size does not match config";
    return false;
  }
  for (uint32_t idx = 0; idx < config_.fleet_size && fleet.ok(); ++idx) {
    fleet_.RestoreSlotState(idx, DecodeFleetSlot(fleet));
  }
  if (fleet.U64() != fleet_.class_count()) {
    *error = "snapshot class count does not match config";
    return false;
  }
  for (uint32_t c = 0; c < fleet_.class_count() && fleet.ok(); ++c) {
    fleet_.RestoreClassReplacements(c, fleet.U64());
  }
  if (!fleet.ok()) {
    *error = "fleet chunk truncated";
    return false;
  }
  fleet_.RecountAggregates();

  ByteReader acc = reader.Chunk(kAliveChunk);
  alive_.last_change = SimTime::Micros(acc.I64());
  const bool shaped = alive_.Decode(acc);
  report_.total_failures = acc.U64();
  report_.total_replacements = acc.U64();
  report_.proactive_replacements = acc.U64();
  report_.units_deployed = acc.U64();
  if (!acc.ok() || !shaped) {
    *error = "'aliv' chunk truncated or mis-shaped";
    return false;
  }

  ByteReader surv = reader.Chunk(kSurvivalChunk);
  const uint64_t observation_count = surv.U64();
  // 9 bytes per observation; clamp before trusting the count.
  if (!surv.ok() || observation_count > surv.remaining() / 9) {
    *error = "survival chunk truncated";
    return false;
  }
  for (uint64_t i = 0; i < observation_count && surv.ok(); ++i) {
    const SimTime time = SimTime::Micros(surv.I64());
    const bool failed = surv.U8() != 0;
    report_.unit_survival.Observe(time, failed);
  }
  if (!surv.ok()) {
    *error = "survival chunk truncated";
    return false;
  }

  ByteReader sched = reader.Chunk(kSchedChunk);
  const SimTime now = SimTime::Micros(sched.I64());
  const uint64_t executed = sched.U64();
  const uint64_t late = sched.U64();
  if (!sched.ok()) {
    *error = "scheduler chunk truncated";
    return false;
  }
  // Clock before timers: re-armed ScheduleAt calls must see the barrier
  // as "now".
  sim_.scheduler().RestoreClock(now, executed, late);

  ByteReader tr = reader.Chunk(kTimerChunk);
  const std::vector<TimerRecord> records = TimerTable::Decode(tr);
  if (!tr.ok()) {
    *error = "timer chunk truncated";
    return false;
  }
  // A pending failure names a live unit, and its life is the unit's fail
  // time minus its restored deployment time, as the sampled engine derives
  // it. Unsigned arithmetic: both operands come from the file.
  for (const TimerRecord& r : records) {
    if (r.tag != kCenturyTimerSiteFail) {
      continue;
    }
    const uint32_t idx = static_cast<uint32_t>(r.a);
    if (r.a >= config_.fleet_size || !fleet_.alive(idx)) {
      *error = "site " + std::to_string(r.a) + " has a pending failure but is dead or outside "
               "the fleet";
      return false;
    }
    const uint64_t deployed_us = static_cast<uint64_t>(fleet_.deployed_at(idx).micros());
    if (r.b != static_cast<uint64_t>(r.at_us) - deployed_us) {
      *error = "site " + std::to_string(r.a) + "'s failure record carries a life of " +
               std::to_string(r.b) + " us, not its fail time minus its deployment time";
      return false;
    }
  }
  if (!rearm(records, error)) {
    return false;
  }

  if (config_.snapshot.branch_salt != 0) {
    rng_ = rng_.Derive(config_.snapshot.branch_salt);
  }
  return true;
}

void CenturyModel::Finish() {
  report_.events_executed = sim_.scheduler().executed_count();
  double max_gen = 0.0;
  for (uint32_t idx = 0; idx < size(); ++idx) {
    if (fleet_.alive(idx)) {
      report_.unit_survival.Observe(config_.horizon - fleet_.deployed_at(idx),
                                    /*failed=*/false);
    }
    max_gen = std::max(max_gen, static_cast<double>(fleet_.unit_generation(idx)));
  }
  report_.max_unit_generations = max_gen;
  alive_.FillRates(config_.horizon, config_.fleet_size, &report_.mean_availability,
                   &report_.yearly_availability, &report_.min_yearly_availability);
}

}  // namespace centsim
