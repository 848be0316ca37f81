#include "src/core/district_model.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "src/core/fleet_codec.h"
#include "src/sim/ensemble.h"
#include "src/snapshot/codec.h"
#include "src/snapshot/snapshot.h"
#include "src/telemetry/run_manifest.h"

namespace centsim {
namespace {

// RNG stream ids: the deployment plan's, and the engines' lifetime root.
constexpr uint64_t kPlanStream = 0x646973740001ULL;
constexpr uint64_t kLifeStream = 0x646973740002ULL;

// `district` snapshot chunk tags.
constexpr uint32_t kFleetChunk = SnapshotTag('f', 'l', 'e', 't');
constexpr uint32_t kGatewayChunk = SnapshotTag('g', 'w', 's', 't');
constexpr uint32_t kAccumChunk = SnapshotTag('a', 'c', 'c', 'u');
constexpr uint32_t kTimerChunk = SnapshotTag('t', 'i', 'm', 'r');
constexpr uint32_t kSchedChunk = SnapshotTag('s', 'c', 'h', 'd');
constexpr uint32_t kMetricsChunk = SnapshotTag('m', 'e', 't', 'r');

DeploymentPlan::Params PlanParams(const DistrictConfig& config) {
  DeploymentPlan::Params dp;
  dp.site_count = config.device_count;
  dp.area_km2 = config.area_km2;
  dp.zone_grid = config.zone_grid;
  return dp;
}

}  // namespace

DistrictGeometry::DistrictGeometry(const DistrictConfig& config)
    : plan(PlanParams(config), RandomStream(config.seed).Derive(kPlanStream)),
      gateway_sites(plan.PlanGatewayGrid(config.gateway_range_m)),
      coverage(BuildCoverageCsr(plan.sites(), gateway_sites, config.gateway_range_m)) {}

double DistrictGeometry::InitialCoverage() const {
  const size_t sites = plan.sites().size();
  std::vector<uint8_t> covered(sites, 0);
  for (uint32_t d : coverage.site_ids) {
    covered[d] = 1;
  }
  uint32_t covered_at_all = 0;
  for (uint8_t c : covered) {
    covered_at_all += c;
  }
  return static_cast<double>(covered_at_all) / static_cast<double>(sites);
}

DeviceClassSpec DistrictSiteClass(const DistrictConfig& config) {
  DeviceClassSpec spec;
  spec.name = "district-site";
  spec.hardware = config.device_class == DeviceClassKind::kBatteryPowered
                      ? SeriesSystem::BatteryPoweredNode()
                      : SeriesSystem::EnergyHarvestingNode();
  return spec;
}

BatchProjectParams DistrictBatches(const DistrictConfig& config) {
  BatchProjectParams batch;
  batch.zone_count = config.zone_grid * config.zone_grid;
  batch.cycle_period = config.batch_cycle;
  return batch;
}

std::string DistrictStructuralDigest(const DistrictConfig& config) {
  ByteWriter w;
  w.U64(config.seed);
  w.U32(config.device_count);
  w.F64(config.area_km2);
  w.U32(config.zone_grid);
  w.I64(config.horizon.micros());
  w.F64(config.gateway_range_m);
  w.I64(config.batch_cycle.micros());
  w.U8(static_cast<uint8_t>(config.device_class));
  return StructuralDigestHex(w);
}

DistrictModel::DistrictModel(Simulation& sim, const DistrictConfig& config,
                             DistrictReport& report)
    : sim_(sim),
      config_(config),
      report_(report),
      fleet_(sim),
      rng_(sim.StreamFor(kLifeStream)),
      gateway_bom_(SeriesSystem::RaspberryPiGateway()),
      years_(static_cast<uint32_t>(std::ceil(config.horizon.ToYears()))),
      yearly_service_seconds_(years_, 0.0) {
  // The plan lives only through construction: the run keeps the fleet
  // columns and the coverage map, not the site list.
  DistrictGeometry geo(config);
  report_.gateway_count = static_cast<uint32_t>(geo.gateway_sites.size());
  report_.initial_coverage = geo.InitialCoverage();
  cls_ = fleet_.InternClass(DistrictSiteClass(config));
  fleet_.AddSites(geo.plan, cls_, HarvesterModel(), 0, config.device_count);
  if (config.metrics != nullptr) {
    fleet_.EnableFleetMetrics();
  }
  zone_sites_.resize(geo.plan.zone_count());
  for (uint32_t d = 0; d < config.device_count; ++d) {
    zone_sites_[fleet_.zone(d)].push_back(d);
  }
  coverage_ = std::move(geo.coverage);
  gateway_up_.assign(report_.gateway_count, 0);
}

void DistrictModel::GatewayFailAt(uint32_t g, SimTime at) {
  ++report_.gateway_failures;
  Record(kDistrictGatewayFail, at, g);
  SetGatewayAt(g, false, at);
}

void DistrictModel::GatewayRepairAt(uint32_t g, SimTime at) {
  ++report_.gateway_repairs;
  Record(kDistrictGatewayRepair, at, g);
  SetGatewayAt(g, true, at);
}

// A gateway transition adjusts every covered site's operational-gateway
// count, and the in-service count with it.
void DistrictModel::SetGatewayAt(uint32_t g, bool up, SimTime at) {
  if ((gateway_up_[g] != 0) == up) {
    return;
  }
  AccumulateTo(at);
  gateway_up_[g] = up ? 1 : 0;
  const int delta = up ? 1 : -1;
  for (uint32_t k = coverage_.begin(g); k < coverage_.end(g); ++k) {
    const uint32_t d = coverage_.site_ids[k];
    const bool was = InService(d);
    fleet_.AddCoveringAt(d, delta);
    const bool is = InService(d);
    if (was && !is) {
      --service_count_;
    } else if (!was && is) {
      ++service_count_;
    }
  }
}

void DistrictModel::SaveCheckpoint(SimTime barrier, const std::vector<TimerRecord>& timers) {
  const auto save_start = std::chrono::steady_clock::now();
  SnapshotMeta meta;
  meta.experiment = "district";
  meta.library_version = kCentsimVersion;
  meta.structural_digest = DistrictStructuralDigest(config_);
  meta.barrier_us = barrier.micros();
  meta.seed = config_.seed;
  SnapshotWriter writer(std::move(meta));

  ByteWriter fleet;
  fleet.U64(config_.device_count);
  for (uint32_t d = 0; d < config_.device_count; ++d) {
    EncodeFleetSlot(fleet_.SaveSlotState(d), fleet);
  }
  fleet.U64(fleet_.class_count());
  for (uint32_t c = 0; c < fleet_.class_count(); ++c) {
    fleet.U64(fleet_.class_replacements(c));
  }
  writer.Add(kFleetChunk, fleet);

  ByteWriter gw;
  gw.U64(gateway_up_.size());
  for (uint8_t up : gateway_up_) {
    gw.U8(up);
  }
  writer.Add(kGatewayChunk, gw);

  ByteWriter acc;
  acc.U64(service_count_);
  acc.I64(last_change_.micros());
  acc.F64(alive_site_seconds_);
  acc.F64(service_site_seconds_);
  acc.F64Vec(yearly_service_seconds_);
  acc.U64(report_.device_failures);
  acc.U64(report_.device_replacements);
  acc.U64(report_.gateway_failures);
  acc.U64(report_.gateway_repairs);
  writer.Add(kAccumChunk, acc);

  ByteWriter tr;
  TimerTable::Encode(timers, tr);
  writer.Add(kTimerChunk, tr);

  ByteWriter sched;
  sched.I64(barrier.micros());
  sched.U64(sim_.scheduler().executed_count());
  sched.U64(sim_.scheduler().late_schedule_count());
  writer.Add(kSchedChunk, sched);

  if (config_.metrics != nullptr) {
    ByteWriter m;
    EncodeMetrics(*config_.metrics, m);
    writer.Add(kMetricsChunk, m);
  }

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
  Record("district.checkpoint", barrier, static_cast<uint64_t>(barrier.micros()));
}

bool DistrictModel::Resume(const RearmFn& rearm) {
  const std::string path = ResolveResumePath(config_.snapshot);
  if (path.empty()) {
    return false;
  }
  const auto restore_start = std::chrono::steady_clock::now();
  std::string error;
  if (!Restore(path, rearm, &error)) {
    CheckConfigOrDie("district", {"cannot resume from " + path + ": " + error});
  }
  report_.restore_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - restore_start).count();
  return true;
}

bool DistrictModel::Restore(const std::string& path, const RearmFn& rearm,
                            std::string* error) {
  SnapshotReader reader;
  if (!OpenCheckpoint(reader, path, "district", DistrictStructuralDigest(config_), error)) {
    return false;
  }

  ByteReader fleet = reader.Chunk(kFleetChunk);
  if (fleet.U64() != config_.device_count) {
    *error = "snapshot fleet size does not match config";
    return false;
  }
  for (uint32_t d = 0; d < config_.device_count && fleet.ok(); ++d) {
    fleet_.RestoreSlotState(d, DecodeFleetSlot(fleet));
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

  ByteReader gw = reader.Chunk(kGatewayChunk);
  if (gw.U64() != gateway_up_.size()) {
    *error = "snapshot gateway count does not match config";
    return false;
  }
  for (size_t g = 0; g < gateway_up_.size() && gw.ok(); ++g) {
    gateway_up_[g] = gw.U8();
  }
  if (!gw.ok()) {
    *error = "gateway chunk truncated";
    return false;
  }

  ByteReader acc = reader.Chunk(kAccumChunk);
  service_count_ = acc.U64();
  last_change_ = SimTime::Micros(acc.I64());
  alive_site_seconds_ = acc.F64();
  service_site_seconds_ = acc.F64();
  const std::vector<double> yearly = acc.F64Vec();
  report_.device_failures = acc.U64();
  report_.device_replacements = acc.U64();
  report_.gateway_failures = acc.U64();
  report_.gateway_repairs = acc.U64();
  if (!acc.ok() || yearly.size() != yearly_service_seconds_.size()) {
    *error = "accumulator chunk truncated or mis-shaped";
    return false;
  }
  yearly_service_seconds_ = yearly;

  if (config_.metrics != nullptr && reader.HasChunk(kMetricsChunk)) {
    ByteReader m = reader.Chunk(kMetricsChunk);
    if (DecodeMetricsOverlay(m, *config_.metrics) == SIZE_MAX) {
      *error = "metrics chunk undecodable";
      return false;
    }
  }
  fleet_.RecountAggregates();

  ByteReader sched = reader.Chunk(kSchedChunk);
  const SimTime now = SimTime::Micros(sched.I64());
  const uint64_t executed = sched.U64();
  const uint64_t late = sched.U64();
  if (!sched.ok()) {
    *error = "scheduler chunk truncated";
    return false;
  }
  // Clock before timers: re-armed ScheduleAt calls must see the barrier
  // as "now" so none of them count as late.
  sim_.scheduler().RestoreClock(now, executed, late);

  ByteReader tr = reader.Chunk(kTimerChunk);
  const std::vector<TimerRecord> records = TimerTable::Decode(tr);
  if (!tr.ok()) {
    *error = "timer chunk truncated";
    return false;
  }
  if (!rearm(records, error)) {
    return false;
  }

  // What-if divergence: re-key the RNG root so post-restore lifetime
  // draws explore a different future than the parent run. The default
  // (salt 0) keeps the parent's streams — common random numbers.
  if (config_.snapshot.branch_salt != 0) {
    rng_ = rng_.Derive(config_.snapshot.branch_salt);
  }
  return true;
}

void DistrictModel::Finish() {
  AccumulateTo(config_.horizon);
  report_.events_executed = sim_.scheduler().executed_count();
  report_.fleet_bytes_per_device = fleet_.BytesPerDevice();

  const double total = config_.horizon.ToSeconds() * config_.device_count;
  report_.mean_device_availability = alive_site_seconds_ / total;
  report_.mean_service_availability = service_site_seconds_ / total;
  report_.yearly_service.resize(years_);
  const double year_total = SimTime::Years(1).ToSeconds() * config_.device_count;
  for (uint32_t y = 0; y < years_; ++y) {
    report_.yearly_service[y] = yearly_service_seconds_[y] / year_total;
    report_.min_yearly_service = std::min(report_.min_yearly_service, report_.yearly_service[y]);
  }
}

}  // namespace centsim
