#include "src/core/district_model.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
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
// The in-service count, the exact integer integrals and the counters.
// Earlier formats carried double integrals under 'accu'; the reader
// refuses a file without 'intg'.
constexpr uint32_t kIntegralChunk = SnapshotTag('i', 'n', 't', 'g');
// One record per gateway: its pending failure or repair.
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

CoverageCells BuildCoverageCells(const CoverageCsr& coverage, uint32_t site_count) {
  // Partition refinement. Every site starts in the empty set's cell; each
  // gateway, in ascending order, moves its sites from their cell S into
  // the cell S + {g}, created on first use. A site's cell before gateway
  // g's pass is its covering set among the gateways below g, so two sites
  // end in one cell exactly when their covering sets are equal.
  const uint32_t gateways = static_cast<uint32_t>(coverage.offsets.size()) - 1;
  std::vector<uint32_t> site_cell(site_count, 0);
  std::vector<uint32_t> parent{0};      // Provisional cell -> the cell it split from.
  std::vector<uint32_t> via{0};         // ... and the gateway that split it.
  std::vector<uint32_t> child{0};       // The cell's S + {g} for the current g.
  std::vector<uint32_t> child_for{0};   // That g + 1; 0 before any split.
  for (uint32_t g = 0; g < gateways; ++g) {
    for (uint32_t k = coverage.begin(g); k < coverage.end(g); ++k) {
      const uint32_t d = coverage.site_ids[k];
      const uint32_t from = site_cell[d];
      if (child_for[from] != g + 1) {
        const uint32_t created = static_cast<uint32_t>(parent.size());
        parent.push_back(from);
        via.push_back(g);
        child.push_back(0);
        child_for.push_back(0);
        child[from] = created;
        child_for[from] = g + 1;
      }
      site_cell[d] = child[from];
    }
  }

  // Renumber the non-empty cells in order of their first site; cell 0
  // stays the uncovered one.
  CoverageCells cells;
  std::vector<uint32_t> final_id(parent.size(), UINT32_MAX);
  std::vector<uint32_t> provisional{0};  // Final id -> provisional id.
  final_id[0] = 0;
  cells.cell_sites.push_back(0);
  for (uint32_t d = 0; d < site_count; ++d) {
    uint32_t& id = final_id[site_cell[d]];
    if (id == UINT32_MAX) {
      id = cells.count();
      provisional.push_back(site_cell[d]);
      cells.cell_sites.push_back(0);
    }
    site_cell[d] = id;
    ++cells.cell_sites[id];
  }
  cells.site_cell = std::move(site_cell);

  // Gateway -> cells: a cell's gateways are the `via` links on its chain
  // back to the empty set. Visiting cells in ascending order keeps every
  // gateway's row ascending.
  cells.offsets.assign(gateways + 1, 0);
  for (uint32_t c = 1; c < cells.count(); ++c) {
    for (uint32_t p = provisional[c]; p != 0; p = parent[p]) {
      ++cells.offsets[via[p] + 1];
    }
  }
  for (uint32_t g = 0; g < gateways; ++g) {
    cells.offsets[g + 1] += cells.offsets[g];
  }
  cells.cell_ids.resize(cells.offsets[gateways]);
  std::vector<uint32_t> cursor(cells.offsets.begin(), cells.offsets.end() - 1);
  for (uint32_t c = 1; c < cells.count(); ++c) {
    for (uint32_t p = provisional[c]; p != 0; p = parent[p]) {
      cells.cell_ids[cursor[via[p]]++] = c;
    }
  }
  return cells;
}

std::string CheckRestoredCovering(uint32_t site, uint32_t saved, const ServiceCounts& service) {
  if (saved == service.covering(site)) {
    return "";
  }
  return "site " + std::to_string(site) + " was saved covered by " + std::to_string(saved) +
         " operational gateways, but the restored gateway states cover it with " +
         std::to_string(service.covering(site));
}

std::string CheckRestoredGatewayNext(uint64_t g, bool up, bool fails, int64_t at_us,
                                     SimTime barrier) {
  const std::string gateway = "gateway " + std::to_string(g);
  if (up != fails) {
    return gateway + " was saved " + (up ? "up" : "down") + " but its next transition is a " +
           (fails ? "failure" : "repair");
  }
  if (at_us < barrier.micros()) {
    return gateway + "'s next transition at " + std::to_string(at_us) +
           " us is before the barrier at " + std::to_string(barrier.micros()) + " us";
  }
  return "";
}

DistrictGeometry::DistrictGeometry(const DistrictConfig& config)
    : plan(PlanParams(config), RandomStream(config.seed).Derive(kPlanStream)),
      gateway_sites(plan.PlanGatewayGrid(config.gateway_range_m)),
      cells(std::make_shared<const CoverageCells>(BuildCoverageCells(
          BuildCoverageCsr(plan.sites(), gateway_sites, config.gateway_range_m),
          static_cast<uint32_t>(plan.sites().size())))) {}

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

void EncodeDistrictTotals(const SiteSeconds& alive, const SiteSeconds& service,
                          const DistrictReport& counts, ByteWriter& w) {
  w.I128(alive.total);
  service.Encode(w);
  w.U64(counts.device_failures);
  w.U64(counts.device_replacements);
  w.U64(counts.gateway_failures);
  w.U64(counts.gateway_repairs);
}

bool DecodeDistrictTotals(ByteReader& r, SiteSeconds* alive, SiteSeconds* service,
                          DistrictReport* counts) {
  alive->total = r.I128();
  const bool shaped = service->Decode(r);
  counts->device_failures = r.U64();
  counts->device_replacements = r.U64();
  counts->gateway_failures = r.U64();
  counts->gateway_repairs = r.U64();
  return shaped && r.ok();
}

void FillDistrictAvailability(const SiteSeconds& alive, const SiteSeconds& service,
                              const DistrictConfig& config, DistrictReport& report) {
  report.mean_device_availability =
      SiteSeconds::Rate(alive.total, config.horizon, config.device_count);
  service.FillRates(config.horizon, config.device_count, &report.mean_service_availability,
                    &report.yearly_service, &report.min_yearly_service);
}

// The geometry lives only through construction: the run keeps the fleet
// columns and the coverage cells, not the site list.
DistrictModel::DistrictModel(Simulation& sim, const DistrictConfig& config,
                             DistrictReport& report)
    : DistrictModel(sim, config, report, DistrictGeometry(config), 0, config.device_count,
                    config.control.recorder) {}

DistrictModel::DistrictModel(Simulation& sim, const DistrictConfig& config,
                             DistrictReport& report, const DistrictGeometry& geo,
                             uint32_t begin, uint32_t end, FlightRecorder* recorder)
    : sim_(sim),
      config_(config),
      report_(report),
      begin_(begin),
      end_(end),
      recorder_(recorder),
      fleet_(sim),
      rng_(sim.StreamFor(kLifeStream)),
      gateway_bom_(SeriesSystem::RaspberryPiGateway()),
      cells_(geo.cells),
      service_(*cells_),
      calendar_(fleet_, config.horizon),
      alive_seconds_(config.horizon),
      service_seconds_(config.horizon) {
  report_.gateway_count = static_cast<uint32_t>(geo.gateway_sites.size());
  report_.initial_coverage = cells_->CoveredFraction();
  cls_ = fleet_.InternClass(DistrictSiteClass(config));
  fleet_.AddSites(geo.plan, cls_, begin, end);
  if (config.metrics != nullptr) {
    fleet_.EnableFleetMetrics();
  }
  zone_sites_.resize(geo.plan.zone_count());
  for (uint32_t idx = 0; idx < size(); ++idx) {
    zone_sites_[fleet_.zone(idx)].push_back(idx);
  }
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

// A gateway transition adjusts the up count of each of its cells, and the
// in-service and covered counts with it.
void DistrictModel::SetGatewayAt(uint32_t g, bool up, SimTime at) {
  if (service_.gateway_up(g) == up) {
    return;
  }
  AccumulateTo(at);
  service_.SetGateway(g, up);
  fleet_.SetCoveredSites(service_.covered());
}

// A failure also touches its site's coverage cell line.
void DistrictModel::RunTo(SimTime limit) {
  calendar_.RunTo(
      sim_.scheduler(), limit, kDistrictDeviceFail,
      [this](uint32_t idx) { __builtin_prefetch(cells_->site_cell.data() + begin_ + idx); },
      [this](uint32_t idx, SimTime at) { DeviceFailAt(idx, at); });
}

void DistrictModel::EndRestore(SimTime last_change) {
  fleet_.RecountAggregates();
  fleet_.SetCoveredSites(service_.covered());
  alive_seconds_.last_change = last_change;
  service_seconds_.last_change = last_change;
}

void DistrictModel::SaveCheckpoint(SimTime barrier, const std::vector<TimerRecord>& gateways) {
  const auto save_start = std::chrono::steady_clock::now();
  calendar_.StampDeadlines();
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
    EncodeFleetSlot(SaveSlot(d), fleet);
  }
  fleet.U64(fleet_.class_count());
  for (uint32_t c = 0; c < fleet_.class_count(); ++c) {
    fleet.U64(fleet_.class_replacements(c));
  }
  writer.Add(kFleetChunk, fleet);

  ByteWriter gw;
  gw.U64(gateway_count());
  for (uint32_t g = 0; g < gateway_count(); ++g) {
    gw.U8(gateway_up(g) ? 1 : 0);
  }
  writer.Add(kGatewayChunk, gw);

  ByteWriter acc;
  acc.U64(service_.in_service());
  acc.I64(alive_seconds_.last_change.micros());
  EncodeDistrictTotals(alive_seconds_, service_seconds_, report_, acc);
  writer.Add(kIntegralChunk, acc);

  ByteWriter tr;
  TimerTable::Encode(gateways, tr);
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

std::optional<SimTime> DistrictModel::Resume(std::vector<TimerRecord>* gateways) {
  const std::string path = ResolveResumePath(config_.snapshot);
  if (path.empty()) {
    return std::nullopt;
  }
  const auto restore_start = std::chrono::steady_clock::now();
  std::string error;
  if (!Restore(path, gateways, &error)) {
    CheckConfigOrDie("district", {"cannot resume from " + path + ": " + error});
  }
  report_.restore_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - restore_start).count();
  return sim_.Now() + SimTime::Micros(1);
}

bool DistrictModel::Restore(const std::string& path, std::vector<TimerRecord>* gateways,
                            std::string* error) {
  SnapshotReader reader;
  if (!OpenCheckpoint(reader, path, "district", DistrictStructuralDigest(config_), error)) {
    return false;
  }
  if (!reader.HasChunk(kIntegralChunk)) {
    *error = "snapshot has no 'intg' chunk (the exact integer availability integrals); it "
             "was written in an earlier format";
    return false;
  }

  ByteReader sched = reader.Chunk(kSchedChunk);
  const SimTime barrier = SimTime::Micros(sched.I64());
  const uint64_t executed = sched.U64();
  const uint64_t late = sched.U64();
  if (!sched.ok()) {
    *error = "scheduler chunk truncated";
    return false;
  }
  *error = CheckRestoredBarrier(barrier, config_.horizon);
  if (!error->empty()) {
    return false;
  }
  sim_.scheduler().RestoreClock(barrier, executed, late);

  // Gateways before the fleet: each slot's saved covering count is checked
  // against the cells' up counts as it is decoded.
  ByteReader gw = reader.Chunk(kGatewayChunk);
  if (gw.U64() != gateway_count()) {
    *error = "snapshot gateway count does not match config";
    return false;
  }
  for (uint32_t g = 0; g < gateway_count() && gw.ok(); ++g) {
    RestoreGateway(g, gw.U8() != 0);
  }
  if (!gw.ok()) {
    *error = "gateway chunk truncated";
    return false;
  }

  ByteReader fleet = reader.Chunk(kFleetChunk);
  if (fleet.U64() != config_.device_count) {
    *error = "snapshot fleet size does not match config";
    return false;
  }
  for (uint32_t d = 0; d < config_.device_count; ++d) {
    const DeviceFleet::SlotState slot = DecodeFleetSlot(fleet);
    if (!fleet.ok()) {
      break;
    }
    *error = CheckRestoredCovering(d, slot.covering, service_);
    if (error->empty()) {
      *error = CheckRestoredDeadline(d, slot, barrier);
    }
    if (!error->empty()) {
      return false;
    }
    RestoreSlot(d, slot);
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

  ByteReader acc = reader.Chunk(kIntegralChunk);
  const uint64_t in_service = acc.U64();
  const SimTime last_change = SimTime::Micros(acc.I64());
  if (!DecodeDistrictTotals(acc, &alive_seconds_, &service_seconds_, &report_)) {
    *error = "'intg' chunk truncated or mis-shaped";
    return false;
  }
  if (in_service != service_.in_service()) {
    *error = "snapshot in-service count " + std::to_string(in_service) +
             " does not match its fleet and gateway states (" +
             std::to_string(service_.in_service()) + ")";
    return false;
  }

  if (config_.metrics != nullptr && reader.HasChunk(kMetricsChunk)) {
    ByteReader m = reader.Chunk(kMetricsChunk);
    if (DecodeMetricsOverlay(m, *config_.metrics) == SIZE_MAX) {
      *error = "metrics chunk undecodable";
      return false;
    }
  }
  EndRestore(last_change);

  ByteReader tr = reader.Chunk(kTimerChunk);
  *gateways = TimerTable::Decode(tr);
  if (!tr.ok()) {
    *error = "timer chunk truncated";
    return false;
  }
  std::vector<uint8_t> pending(gateway_count(), 0);
  for (const TimerRecord& r : *gateways) {
    if (r.tag != kDistrictTimerGatewayFail && r.tag != kDistrictTimerGatewayRepair) {
      *error = "snapshot carries timer tags this driver does not register";
    } else if (r.a >= gateway_count()) {
      *error = "gateway " + std::to_string(r.a) + " has a pending transition but the plan has " +
               std::to_string(gateway_count()) + " gateways";
    } else if (pending[r.a]++ != 0) {
      *error = "gateway " + std::to_string(r.a) + " has more than one pending transition";
    } else {
      *error = CheckRestoredGatewayNext(r.a, gateway_up(static_cast<uint32_t>(r.a)),
                                        r.tag == kDistrictTimerGatewayFail, r.at_us, barrier);
    }
    if (!error->empty()) {
      return false;
    }
  }
  for (uint32_t g = 0; g < gateway_count(); ++g) {
    if (pending[g] == 0) {
      *error = "gateway " + std::to_string(g) + " has no pending transition";
      return false;
    }
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
  FillDistrictAvailability(alive_seconds_, service_seconds_, config_, report_);
}

}  // namespace centsim
