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
// The barrier, the scheduler's counters and the time from which zone
// visits are pending. No timer chunk: the visits follow from the config.
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
    fleet_.AddSite(cls_, idx % zone_count());
  }
}

void CenturyModel::SaveCheckpoint(std::span<CenturyModel* const> parts, SimTime barrier,
                                  SimTime visits_from, const SiteSeconds& alive,
                                  CenturyReport& run) {
  const auto save_start = std::chrono::steady_clock::now();
  const CenturyModel& first = *parts.front();
  const CenturyConfig& config = first.config_;
  SnapshotMeta meta;
  meta.experiment = "century";
  meta.library_version = kCentsimVersion;
  meta.structural_digest = CenturyStructuralDigest(config);
  meta.barrier_us = barrier.micros();
  meta.seed = config.seed;
  SnapshotWriter writer(std::move(meta));

  ByteWriter fleet;
  fleet.U64(config.fleet_size);
  for (const CenturyModel* part : parts) {
    for (uint32_t idx = 0; idx < part->size(); ++idx) {
      EncodeFleetSlot(part->fleet_.SaveSlotState(idx), fleet);
    }
  }
  fleet.U64(first.fleet_.class_count());
  for (uint32_t c = 0; c < first.fleet_.class_count(); ++c) {
    uint64_t replacements = 0;
    for (const CenturyModel* part : parts) {
      replacements += part->fleet_.class_replacements(c);
    }
    fleet.U64(replacements);
  }
  writer.Add(kFleetChunk, fleet);

  CenturyReport totals;
  for (const CenturyModel* part : parts) {
    totals.total_failures += part->report_.total_failures;
    totals.total_replacements += part->report_.total_replacements;
    totals.proactive_replacements += part->report_.proactive_replacements;
    totals.units_deployed += part->report_.units_deployed;
  }
  ByteWriter acc;
  acc.I64(alive.last_change.micros());
  alive.Encode(acc);
  acc.U64(totals.total_failures);
  acc.U64(totals.total_replacements);
  acc.U64(totals.proactive_replacements);
  acc.U64(totals.units_deployed);
  writer.Add(kAliveChunk, acc);

  ByteWriter surv;
  uint64_t observations = 0;
  for (const CenturyModel* part : parts) {
    observations += part->report_.unit_survival.count();
  }
  surv.U64(observations);
  for (const CenturyModel* part : parts) {
    part->report_.unit_survival.ForEachObservation([&surv](const SurvivalObservation& o) {
      surv.I64(o.time.micros());
      surv.U8(o.failed ? 1 : 0);
    });
  }
  writer.Add(kSurvivalChunk, surv);

  Scheduler& scheduler = first.sim_.scheduler();
  ByteWriter sched;
  sched.I64(barrier.micros());
  sched.U64(scheduler.executed_count());
  sched.U64(scheduler.late_schedule_count());
  sched.I64(visits_from.micros());
  writer.Add(kSchedChunk, sched);

  std::string path;
  const uint64_t bytes =
      WriteCheckpoint(writer, config.snapshot.checkpoint_dir, barrier.micros(), &path);
  if (bytes == 0) {
    return;
  }
  ++run.checkpoints_written;
  run.last_checkpoint_bytes = bytes;
  run.last_checkpoint_path = path;
  run.save_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - save_start).count();
}

std::optional<SimTime> CenturyModel::Resume(std::span<CenturyModel* const> parts,
                                            CenturyReport& run) {
  const std::string path = ResolveResumePath(parts.front()->config_.snapshot);
  if (path.empty()) {
    return std::nullopt;
  }
  const auto restore_start = std::chrono::steady_clock::now();
  SimTime visits_from;
  std::string error;
  if (!Restore(parts, path, &visits_from, &error)) {
    CheckConfigOrDie("century", {"cannot resume from " + path + ": " + error});
  }
  run.restore_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - restore_start).count();
  return visits_from;
}

bool CenturyModel::Restore(std::span<CenturyModel* const> parts, const std::string& path,
                           SimTime* visits_from, std::string* error) {
  CenturyModel& first = *parts.front();
  const CenturyConfig& config = first.config_;
  SnapshotReader reader;
  if (!OpenCheckpoint(reader, path, "century", CenturyStructuralDigest(config), error)) {
    return false;
  }
  if (!reader.HasChunk(kAliveChunk)) {
    *error = "snapshot has no 'aliv' chunk (the exact integer availability integral); it "
             "was written in an earlier format";
    return false;
  }

  ByteReader sched = reader.Chunk(kSchedChunk);
  const SimTime barrier = SimTime::Micros(sched.I64());
  const uint64_t executed = sched.U64();
  const uint64_t late = sched.U64();
  *visits_from = SimTime::Micros(sched.I64());
  if (!sched.ok()) {
    *error = "scheduler chunk truncated";
    return false;
  }
  *error = CheckRestoredBarrier(barrier, config.horizon);
  // Its writer ran the visits before the barrier, and perhaps those at it.
  if (error->empty() && (*visits_from < barrier || *visits_from > barrier + SimTime::Micros(1))) {
    *error = "zone visits pending from neither the barrier nor 1 us after it";
  }
  if (!error->empty()) {
    return false;
  }
  first.sim_.scheduler().RestoreClock(barrier, executed, late);

  ByteReader fleet = reader.Chunk(kFleetChunk);
  if (fleet.U64() != config.fleet_size) {
    *error = "snapshot fleet size does not match config";
    return false;
  }
  for (CenturyModel* part : parts) {
    for (uint32_t idx = 0; idx < part->size() && fleet.ok(); ++idx) {
      const DeviceFleet::SlotState slot = DecodeFleetSlot(fleet);
      *error = CheckRestoredDeadline(part->begin_ + idx, slot, barrier);
      if (!error->empty()) {
        return false;
      }
      part->fleet_.RestoreSlotState(idx, slot);
    }
  }
  if (fleet.U64() != first.fleet_.class_count()) {
    *error = "snapshot class count does not match config";
    return false;
  }
  for (uint32_t c = 0; c < first.fleet_.class_count() && fleet.ok(); ++c) {
    first.fleet_.RestoreClassReplacements(c, fleet.U64());
  }
  if (!fleet.ok()) {
    *error = "fleet chunk truncated";
    return false;
  }
  for (CenturyModel* part : parts) {
    part->fleet_.RecountAggregates();
  }

  ByteReader acc = reader.Chunk(kAliveChunk);
  first.alive_.last_change = SimTime::Micros(acc.I64());
  const bool shaped = first.alive_.Decode(acc);
  first.report_.total_failures = acc.U64();
  first.report_.total_replacements = acc.U64();
  first.report_.proactive_replacements = acc.U64();
  first.report_.units_deployed = acc.U64();
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
    first.report_.unit_survival.Observe(time, failed);
  }
  if (!surv.ok()) {
    *error = "survival chunk truncated";
    return false;
  }

  if (config.snapshot.branch_salt != 0) {
    for (CenturyModel* part : parts) {
      part->rng_ = part->rng_.Derive(config.snapshot.branch_salt);
    }
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

void CenturyModel::MergeInto(SiteSeconds& alive, CenturyReport& out) {
  alive.Add(alive_);
  out.total_failures += report_.total_failures;
  out.total_replacements += report_.total_replacements;
  out.proactive_replacements += report_.proactive_replacements;
  out.units_deployed += report_.units_deployed;
  out.max_unit_generations = std::max(out.max_unit_generations, report_.max_unit_generations);
  out.unit_survival.Append(std::move(report_.unit_survival));
}

}  // namespace centsim
