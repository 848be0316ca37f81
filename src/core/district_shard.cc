// Sharded district engine (ROADMAP item 1): one city advanced by S lanes
// with conservative windowed synchronization. See DESIGN.md "Sharded
// engine" for the full protocol; the short version:
//
//  - Devices partition into contiguous fleet column ranges, one per lane.
//    Each lane owns a full Simulation/DeviceFleet/Scheduler over its range;
//    geometry (deployment plan, gateway grid, coverage cells) is built once
//    on the main thread and shared read-only.
//  - The only cross-shard coupling is gateway up/down state: a transition
//    of gateway g must adjust covered-service accounting in every lane with
//    sites inside g's range. Each lane keeps its own ServiceCounts over the
//    shared cells, with only its own sites alive in them, so a flip costs
//    a lane O(cells of g) whether or not it holds any of g's sites.
//    Gateway fail/repair is an autonomous process (device state never
//    feeds back into it), so the owner lane (g mod S) PRE-SAMPLES the
//    transition timeline: during the window that ends at barrier B it
//    extends every owned gateway's timeline through B + W, scheduling its
//    own local copy immediately and broadcasting the rest via the
//    ShardBus. Messages published in window w are drained at the
//    start of window w+1 — one full window before the earliest time they
//    can fire — so no lane ever receives an event in its past.
//  - Determinism: per-entity RNG streams are keyed by (entity, ordinal)
//    derivations of lane-independent roots, availability integrates in
//    unsigned 128-bit microsecond-counts (order-free integer sums), and
//    same-timestamp event orders that differ between shard layouts are
//    tie-commutative (measure-only coupling: coverage affects accounting,
//    never dynamics or RNG). Reports are therefore bit-identical across
//    any shards/workers/window choice.
//
// The sharded engine's numbers intentionally differ from the serial
// engine's (which threads one RNG through the global event order and sums
// doubles in that order); shards == 0 keeps the serial path and its golden
// digests byte-for-byte.

#include "src/core/district.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/district_model.h"
#include "src/core/fleet_codec.h"
#include "src/mgmt/batch_project.h"
#include "src/sim/ensemble.h"
#include "src/sim/shard_bus.h"
#include "src/sim/shard_coordinator.h"
#include "src/sim/thread_pool.h"
#include "src/snapshot/snapshot.h"
#include "src/telemetry/run_manifest.h"

namespace centsim {
namespace {

using U128 = unsigned __int128;

constexpr uint32_t kMsgGatewayDown = 1;
constexpr uint32_t kMsgGatewayUp = 2;

// Lane-independent RNG roots: every lane derives them from a Simulation
// seeded with config.seed, and every draw is keyed by (entity, ordinal),
// so a sample's value never depends on which lane takes it or in what
// order. 24 ordinal bits leave 40 bits of entity index.
constexpr uint64_t kShardDeviceRoot = 0x7368646400000001ULL;   // "shdd"
constexpr uint64_t kShardGatewayRoot = 0x7368646400000002ULL;

inline uint64_t EntityKey(uint64_t index, uint32_t ordinal) {
  return (index << 24) | ordinal;
}

// Snapshot chunk tags ("district-shard" experiment). The structural
// digest is the model's (DistrictStructuralDigest): the shard layout
// (shards/workers/window) is deliberately absent, so a snapshot taken under
// K shards restores under any K'.
constexpr uint32_t kShardFleetChunk = SnapshotTag('f', 'l', 'e', 't');
constexpr uint32_t kShardGatewayChunk = SnapshotTag('g', 'w', 'r', 'c');
constexpr uint32_t kShardAccumChunk = SnapshotTag('a', 'c', 'c', 'u');

double U128Seconds(U128 us) { return static_cast<double>(us) / 1e6; }

// Gateway fail/repair recurrence, advanced identically by the emission
// cursor (through barrier + W), the committed cursor (through the barrier,
// for checkpoints), and a restoring run (resuming from the saved tuple).
// Each life draw derives a fresh stream keyed by (gateway, ordinal), so
// replaying the advance sequence consumes no shared RNG state.
struct GatewayCursor {
  int64_t next_at_us = 0;
  uint8_t next_is_down = 1;
  uint32_t ordinal = 0;
};

GatewayCursor InitialCursor(const RandomStream& gw_root, const SeriesSystem& bom, uint32_t g) {
  GatewayCursor c;
  RandomStream r = gw_root.Derive(EntityKey(g, 0));
  c.next_at_us = bom.SampleLife(r).life.micros();
  c.next_is_down = 1;
  c.ordinal = 1;
  return c;
}

void AdvanceCursor(GatewayCursor& c, const RandomStream& gw_root, const SeriesSystem& bom,
                   uint32_t g, int64_t repair_delay_us) {
  if (c.next_is_down != 0) {
    c.next_at_us += repair_delay_us;
    c.next_is_down = 0;
  } else {
    RandomStream r = gw_root.Derive(EntityKey(g, c.ordinal));
    ++c.ordinal;
    c.next_at_us += bom.SampleLife(r).life.micros();
    c.next_is_down = 1;
  }
}

// Order-free merged totals (integer microsecond-counts + counters).
struct LaneTotals {
  U128 alive_us = 0;
  U128 service_us = 0;
  std::vector<U128> yearly_service_us;
  uint64_t device_failures = 0;
  uint64_t device_replacements = 0;
  uint64_t gateway_failures = 0;
  uint64_t gateway_repairs = 0;
};

// Everything a "district-shard" snapshot carries, in global index order —
// shard-count-free, so K lanes can save it and K' lanes restore it.
struct RestoreState {
  int64_t barrier_us = 0;
  std::vector<DeviceFleet::SlotState> slots;  // Global device order.
  std::vector<uint8_t> gw_up;
  std::vector<uint8_t> gw_next_down;
  std::vector<uint32_t> gw_ordinal;
  std::vector<int64_t> gw_next_at;
  LaneTotals base;       // Accumulators as of the barrier (global sums).
  uint64_t executed = 0; // Total events executed across lanes at the barrier.
};

class DistrictShardLane final : public ShardLane {
 public:
  DistrictShardLane(const DistrictConfig& config, const DistrictGeometry& geo, ShardBus& bus,
                    uint32_t lane, uint32_t shards, uint32_t begin, uint32_t end,
                    const RestoreState* restore, FlightRecorder* recorder)
      : config_(config),
        geo_(geo),
        bus_(bus),
        lane_(lane),
        shards_(shards),
        begin_(begin),
        end_(end),
        restore_(restore),
        recorder_(recorder),
        sim_(config.seed),
        fleet_(sim_),
        dev_root_(sim_.StreamFor(kShardDeviceRoot)),
        gw_root_(sim_.StreamFor(kShardGatewayRoot)),
        gateway_bom_(SeriesSystem::RaspberryPiGateway()),
        years_(static_cast<uint32_t>(std::ceil(config.horizon.ToYears()))),
        yearly_service_us_(years_, 0),
        batches_(sim_, DistrictBatches(config),
                 [this](uint32_t zone, uint32_t) { OnZoneVisit(zone); }),
        service_(geo.cells) {
    sim_.trace().EnableRetention(false);
    // All lanes arm every zone's visits (identical jitter draws from the
    // shared seed) but only walk their own slice of the zone. The filter
    // also implements restore: a resumed run re-draws the full visit grid
    // and keeps only visits strictly after the barrier — barrier-coincident
    // visits already ran in the saving run's DrainToBarrier.
    batches_.SetVisitScheduler([this](SimTime at, uint32_t zone, uint32_t) {
      if (at.micros() > restore_barrier_us_) {
        sim_.scheduler().ScheduleAt(at, [this, zone] { OnZoneVisit(zone); }, kDistrictVisit);
      }
    });
    if (restore_ != nullptr && config_.snapshot.branch_salt != 0) {
      dev_root_ = dev_root_.Derive(config_.snapshot.branch_salt);
      gw_root_ = gw_root_.Derive(config_.snapshot.branch_salt);
    }
  }

  // --- ShardLane ----------------------------------------------------------

  void Setup(SimTime cover) override {
    cls_ = fleet_.InternClass(DistrictSiteClass(config_));
    fleet_.AddSites(geo_.plan, cls_, HarvesterModel(), begin_, end_);

    const uint32_t count = end_ - begin_;
    zone_local_.resize(geo_.plan.zone_count());
    for (uint32_t ld = 0; ld < count; ++ld) {
      zone_local_[fleet_.zone(ld)].push_back(ld);
    }
    const uint32_t n_gw = service_.gateway_count();
    cursors_.resize(n_gw);
    committed_.resize(n_gw);

    if (restore_ != nullptr) {
      SetupFromRestore(cover);
      return;
    }

    batches_.ScheduleThrough(config_.horizon);
    // t = 0: every gateway up.
    for (uint32_t g = 0; g < n_gw; ++g) {
      service_.SetGateway(g, true);
    }
    for (uint32_t ld = 0; ld < count; ++ld) {
      DeployDevice(ld);
    }
    for (uint32_t g = lane_; g < n_gw; g += shards_) {
      cursors_[g] = InitialCursor(gw_root_, gateway_bom_, g);
      committed_[g] = cursors_[g];
    }
    ExtendOwned(cover.micros());
  }

  SimTime NextBound() override {
    int64_t bound = sim_.scheduler().EarliestPending().micros();
    for (uint32_t g = lane_; g < cursors_.size(); g += shards_) {
      bound = std::min(bound, cursors_[g].next_at_us);
    }
    return SimTime::Micros(bound);
  }

  void RunWindow(SimTime barrier, SimTime cover) override {
    bus_.DrainInto(lane_, [this](const ShardMessage& m) {
      const uint32_t g = m.a;
      const bool up = m.kind == kMsgGatewayUp;
      sim_.scheduler().ScheduleAt(SimTime::Micros(m.at_us),
                                  [this, g, up] { ApplyGateway(g, up, /*owned=*/false); },
                                  up ? kDistrictGatewayRepair : kDistrictGatewayFail);
    });
    ExtendOwned(cover.micros());
    sim_.scheduler().DrainToBarrier(barrier);
    if (recorder_ != nullptr) {
      recorder_->Record("shard.window", barrier, lane_);
    }
  }

  void AtCheckpointBarrier(SimTime barrier) override {
    AccumulateTo(barrier.micros());
    // Advance the committed cursors through the barrier — the identical
    // draw sequence the emission cursors already consumed, so a restoring
    // run (even a branch-salted one) resumes exactly where emissions up to
    // the barrier left off and re-emits the in-flight (barrier, cover]
    // transitions itself.
    for (uint32_t g = lane_; g < committed_.size(); g += shards_) {
      while (committed_[g].next_at_us <= barrier.micros()) {
        AdvanceCursor(committed_[g], gw_root_, gateway_bom_, g,
                      config_.gateway_repair_delay.micros());
      }
    }
  }

  Scheduler& sched() override { return sim_.scheduler(); }

  // --- Main-thread accessors (lanes quiescent) ----------------------------

  void FinishAt(SimTime horizon) { AccumulateTo(horizon.micros()); }

  void MergeInto(LaneTotals& t) const {
    t.alive_us += alive_us_;
    t.service_us += service_us_;
    for (uint32_t y = 0; y < years_; ++y) {
      t.yearly_service_us[y] += yearly_service_us_[y];
    }
    t.device_failures += device_failures_;
    t.device_replacements += device_replacements_;
    t.gateway_failures += gateway_failures_;
    t.gateway_repairs += gateway_repairs_;
  }

  uint32_t device_count() const { return end_ - begin_; }
  DeviceFleet::SlotState SaveSlot(uint32_t ld) const {
    DeviceFleet::SlotState slot = fleet_.SaveSlotState(ld);
    slot.covering = service_.covering(begin_ + ld);
    return slot;
  }
  bool gateway_up(uint32_t g) const { return service_.gateway_up(g); }
  const GatewayCursor& committed_cursor(uint32_t g) const { return committed_[g]; }
  size_t fleet_bytes() const { return fleet_.MemoryBytes(); }

 private:
  // The loader checked every slot's covering count against these gateway
  // states (LoadShardSnapshot).
  void SetupFromRestore(SimTime cover) {
    const RestoreState& rs = *restore_;
    restore_barrier_us_ = rs.barrier_us;
    for (uint32_t g = 0; g < service_.gateway_count(); ++g) {
      service_.SetGateway(g, rs.gw_up[g] != 0);
    }
    const uint32_t count = end_ - begin_;
    for (uint32_t ld = 0; ld < count; ++ld) {
      fleet_.RestoreSlotState(ld, rs.slots[begin_ + ld]);
      if (fleet_.alive(ld)) {
        service_.SiteUp(begin_ + ld);
      }
    }
    fleet_.RecountAggregates();
    last_us_ = rs.barrier_us;
    // Accumulators restart at zero; the merge adds the snapshot's global
    // base back — exact, because the integer integration splits additively
    // at the barrier. Lane 0 carries the saved executed count so the
    // merged total matches a straight run's.
    sim_.scheduler().RestoreClock(SimTime::Micros(rs.barrier_us),
                                  lane_ == 0 ? rs.executed : 0, 0);
    // Visits before failures: straight runs arm every visit at setup, so
    // visits always carry lower sequence numbers than run-time-armed
    // failure events and win same-timestamp ties. Re-arming in this order
    // (then failures in ascending slot order) preserves that.
    batches_.ScheduleThrough(config_.horizon);
    for (uint32_t ld = 0; ld < count; ++ld) {
      if (fleet_.alive(ld) && fleet_.deadline(ld).micros() > rs.barrier_us) {
        ArmDeviceFailure(ld, fleet_.deadline(ld));
      }
    }
    for (uint32_t g = lane_; g < cursors_.size(); g += shards_) {
      cursors_[g].next_at_us = rs.gw_next_at[g];
      cursors_[g].next_is_down = rs.gw_next_down[g];
      cursors_[g].ordinal = rs.gw_ordinal[g];
      committed_[g] = cursors_[g];
    }
    ExtendOwned(cover.micros());
  }

  // Exact integer availability integration (microseconds × device-count
  // fits only in 128 bits at the 1M-device × 50-year scale).
  void AccumulateTo(int64_t now_us) {
    if (now_us <= last_us_) {
      return;
    }
    const U128 span = static_cast<uint64_t>(now_us - last_us_);
    const uint64_t in_service = service_.in_service();
    alive_us_ += span * fleet_.alive_count();
    service_us_ += span * in_service;
    const int64_t year_us = SimTime::Years(1).micros();
    int64_t t0 = last_us_;
    while (t0 < now_us) {
      const uint32_t y =
          std::min<uint32_t>(years_ - 1, static_cast<uint32_t>(t0 / year_us));
      const int64_t year_end = (static_cast<int64_t>(y) + 1) * year_us;
      const int64_t seg_end = std::min(now_us, year_end);
      yearly_service_us_[y] += U128(static_cast<uint64_t>(seg_end - t0)) * in_service;
      t0 = seg_end;
    }
    last_us_ = now_us;
  }

  // Pre-sample owned gateways' transition timelines through `cover_us`,
  // scheduling local copies eagerly (they keep NextBound honest and make
  // in-flight broadcasts always covered by the sender's bound) and
  // broadcasting to every other lane.
  void ExtendOwned(int64_t cover_us) {
    for (uint32_t g = lane_; g < cursors_.size(); g += shards_) {
      GatewayCursor& c = cursors_[g];
      while (c.next_at_us <= cover_us) {
        const int64_t at = c.next_at_us;
        const bool down = c.next_is_down != 0;
        sim_.scheduler().ScheduleAt(SimTime::Micros(at),
                                    [this, g, down] { ApplyGateway(g, !down, /*owned=*/true); },
                                    down ? kDistrictGatewayFail : kDistrictGatewayRepair);
        ShardMessage m;
        m.at_us = at;
        m.kind = down ? kMsgGatewayDown : kMsgGatewayUp;
        m.a = g;
        bus_.Broadcast(lane_, m);
        AdvanceCursor(c, gw_root_, gateway_bom_, g, config_.gateway_repair_delay.micros());
      }
    }
  }

  // One gateway transition, applied to this lane's sites in its cells. The
  // owner's copy also counts it (exactly once fleet-wide).
  void ApplyGateway(uint32_t g, bool up, bool owned) {
    if (owned) {
      if (up) {
        ++gateway_repairs_;
      } else {
        ++gateway_failures_;
      }
      if (recorder_ != nullptr) {
        recorder_->Record(up ? kDistrictGatewayRepair : kDistrictGatewayFail, sim_.Now(), g);
      }
    }
    if (service_.gateway_up(g) == up) {
      return;
    }
    AccumulateTo(sim_.Now().micros());
    service_.SetGateway(g, up);
  }

  void ArmDeviceFailure(uint32_t ld, SimTime at) {
    sim_.scheduler().ScheduleAt(at, [this, ld] { OnDeviceFailure(ld); }, kDistrictDeviceFail);
  }

  void DeployDevice(uint32_t ld) {
    AccumulateTo(sim_.Now().micros());
    if (!fleet_.alive(ld)) {
      fleet_.DeployAt(ld, sim_.Now());
      service_.SiteUp(begin_ + ld);
    }
    // Keyed by (global index, unit generation): the draw is identical no
    // matter which lane owns the device or when its replacement lands.
    RandomStream dev_rng = dev_root_.Derive(
        EntityKey(begin_ + ld, fleet_.unit_generation(ld)));
    const SimTime life = fleet_.class_spec(cls_).hardware.SampleLife(dev_rng).life;
    const SimTime at = sim_.Now() + life;
    fleet_.set_deadline(ld, at);  // Snapshot re-arm source.
    ArmDeviceFailure(ld, at);
  }

  void OnDeviceFailure(uint32_t ld) {
    AccumulateTo(sim_.Now().micros());
    if (fleet_.alive(ld)) {
      service_.SiteDown(begin_ + ld);
    }
    fleet_.MarkFailedAt(ld, sim_.Now());
    ++device_failures_;
  }

  void OnZoneVisit(uint32_t zone) {
    if (recorder_ != nullptr) {
      recorder_->Record(kDistrictVisit, sim_.Now(), zone);
    }
    for (uint32_t ld : zone_local_[zone]) {
      if (!fleet_.alive(ld)) {
        ++device_replacements_;
        DeployDevice(ld);
      }
    }
  }

  const DistrictConfig& config_;
  const DistrictGeometry& geo_;
  ShardBus& bus_;
  const uint32_t lane_;
  const uint32_t shards_;
  const uint32_t begin_;
  const uint32_t end_;
  const RestoreState* restore_;
  FlightRecorder* recorder_;

  Simulation sim_;
  DeviceFleet fleet_;
  uint32_t cls_ = 0;
  RandomStream dev_root_;
  RandomStream gw_root_;
  const SeriesSystem gateway_bom_;
  const uint32_t years_;
  std::vector<U128> yearly_service_us_;
  BatchProjectScheduler batches_;

  ServiceCounts service_;  // Replicated gateway states; this lane's sites.
  std::vector<std::vector<uint32_t>> zone_local_;
  std::vector<GatewayCursor> cursors_;     // Emission cursor, owned g only.
  std::vector<GatewayCursor> committed_;   // Lags at the last barrier.

  int64_t restore_barrier_us_ = -1;
  int64_t last_us_ = 0;
  U128 alive_us_ = 0;
  U128 service_us_ = 0;
  uint64_t device_failures_ = 0;
  uint64_t device_replacements_ = 0;
  uint64_t gateway_failures_ = 0;
  uint64_t gateway_repairs_ = 0;
};

void SaveShardCheckpoint(const DistrictConfig& config, const DistrictGeometry& geo,
                         const std::vector<std::unique_ptr<DistrictShardLane>>& lanes,
                         const LaneTotals& base, uint64_t base_years, SimTime barrier,
                         DistrictReport& report) {
  const auto save_start = std::chrono::steady_clock::now();
  SnapshotMeta meta;
  meta.experiment = "district-shard";
  meta.library_version = kCentsimVersion;
  meta.structural_digest = DistrictStructuralDigest(config);
  meta.barrier_us = barrier.micros();
  meta.seed = config.seed;
  SnapshotWriter writer(std::move(meta));

  ByteWriter fleet;
  fleet.U64(config.device_count);
  for (const auto& lane : lanes) {
    for (uint32_t ld = 0; ld < lane->device_count(); ++ld) {
      EncodeFleetSlot(lane->SaveSlot(ld), fleet);
    }
  }
  writer.Add(kShardFleetChunk, fleet);

  ByteWriter gw;
  const uint32_t n_gw = static_cast<uint32_t>(geo.gateway_sites.size());
  gw.U64(n_gw);
  for (uint32_t g = 0; g < n_gw; ++g) {
    const GatewayCursor& c = lanes[g % lanes.size()]->committed_cursor(g);
    gw.U8(lanes[0]->gateway_up(g) ? 1 : 0);
    gw.U8(c.next_is_down);
    gw.U32(c.ordinal);
    gw.I64(c.next_at_us);
  }
  writer.Add(kShardGatewayChunk, gw);

  LaneTotals totals = base;
  totals.yearly_service_us.resize(base_years, 0);
  uint64_t executed = 0;
  for (const auto& lane : lanes) {
    lane->MergeInto(totals);
    executed += lane->sched().executed_count();
  }
  ByteWriter acc;
  acc.I64(barrier.micros());
  acc.U128(totals.alive_us);
  acc.U128(totals.service_us);
  acc.U64(totals.yearly_service_us.size());
  for (U128 v : totals.yearly_service_us) {
    acc.U128(v);
  }
  acc.U64(totals.device_failures);
  acc.U64(totals.device_replacements);
  acc.U64(totals.gateway_failures);
  acc.U64(totals.gateway_repairs);
  acc.U64(executed);
  writer.Add(kShardAccumChunk, acc);

  std::string path;
  const uint64_t bytes =
      WriteCheckpoint(writer, config.snapshot.checkpoint_dir, barrier.micros(), &path);
  if (bytes == 0) {
    return;
  }
  ++report.checkpoints_written;
  report.last_checkpoint_bytes = bytes;
  report.last_checkpoint_path = path;
  report.save_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - save_start).count();
}

bool LoadShardSnapshot(const std::string& path, const DistrictConfig& config,
                       const DistrictGeometry& geo, uint32_t years, RestoreState& rs,
                       std::string* error) {
  const uint32_t n_gw = geo.cells.gateway_count();
  SnapshotReader reader;
  if (!OpenCheckpoint(reader, path, "district-shard", DistrictStructuralDigest(config), error)) {
    return false;
  }

  ByteReader fleet = reader.Chunk(kShardFleetChunk);
  if (fleet.U64() != config.device_count) {
    *error = "snapshot fleet size does not match config";
    return false;
  }
  rs.slots.resize(config.device_count);
  for (uint32_t d = 0; d < config.device_count && fleet.ok(); ++d) {
    rs.slots[d] = DecodeFleetSlot(fleet);
  }
  if (!fleet.ok()) {
    *error = "fleet chunk truncated";
    return false;
  }

  ByteReader gw = reader.Chunk(kShardGatewayChunk);
  if (gw.U64() != n_gw) {
    *error = "snapshot gateway count does not match config";
    return false;
  }
  rs.gw_up.resize(n_gw);
  rs.gw_next_down.resize(n_gw);
  rs.gw_ordinal.resize(n_gw);
  rs.gw_next_at.resize(n_gw);
  for (uint32_t g = 0; g < n_gw && gw.ok(); ++g) {
    rs.gw_up[g] = gw.U8();
    rs.gw_next_down[g] = gw.U8();
    rs.gw_ordinal[g] = gw.U32();
    rs.gw_next_at[g] = gw.I64();
  }
  if (!gw.ok()) {
    *error = "gateway chunk truncated";
    return false;
  }
  ServiceCounts restored(geo.cells);
  for (uint32_t g = 0; g < n_gw; ++g) {
    restored.SetGateway(g, rs.gw_up[g] != 0);
  }
  for (uint32_t d = 0; d < config.device_count; ++d) {
    *error = CheckRestoredCovering(d, rs.slots[d].covering, restored);
    if (!error->empty()) {
      return false;
    }
  }

  ByteReader acc = reader.Chunk(kShardAccumChunk);
  rs.barrier_us = acc.I64();
  rs.base.alive_us = acc.U128();
  rs.base.service_us = acc.U128();
  const uint64_t year_count = acc.U64();
  if (!acc.ok() || year_count != years || year_count > acc.remaining() / 16) {
    *error = "accumulator chunk truncated or mis-shaped";
    return false;
  }
  rs.base.yearly_service_us.resize(years);
  for (uint32_t y = 0; y < years; ++y) {
    rs.base.yearly_service_us[y] = acc.U128();
  }
  rs.base.device_failures = acc.U64();
  rs.base.device_replacements = acc.U64();
  rs.base.gateway_failures = acc.U64();
  rs.base.gateway_repairs = acc.U64();
  rs.executed = acc.U64();
  if (!acc.ok()) {
    *error = "accumulator chunk truncated";
    return false;
  }
  return true;
}

}  // namespace

DistrictReport RunShardedDistrictScenario(const DistrictConfig& config) {
  std::vector<std::string> diagnostics = config.Validate();
  if (config.shard.shards == 0) {
    diagnostics.push_back("shard.shards is zero: the sharded engine needs at least one lane "
                          "(use RunDistrictScenario for the serial engine)");
  }
  CheckConfigOrDie("district-shard", diagnostics);

  DistrictReport report;
  const auto build_start = std::chrono::steady_clock::now();
  const uint32_t shards = std::min(config.shard.shards, config.device_count);

  const DistrictGeometry geo(config);
  report.gateway_count = static_cast<uint32_t>(geo.gateway_sites.size());
  report.initial_coverage = geo.cells.CoveredFraction();
  const uint32_t years = static_cast<uint32_t>(std::ceil(config.horizon.ToYears()));

  RestoreState rs;
  bool restoring = false;
  const std::string resume_path = ResolveResumePath(config.snapshot);
  if (!resume_path.empty()) {
    const auto restore_start = std::chrono::steady_clock::now();
    std::string error;
    if (!LoadShardSnapshot(resume_path, config, geo, years, rs, &error)) {
      CheckConfigOrDie("district-shard",
                       {"cannot resume from " + resume_path + ": " + error});
    }
    restoring = true;
    report.restore_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - restore_start)
            .count();
  }

  ShardBus bus(shards);
  std::vector<std::unique_ptr<DistrictShardLane>> lanes;
  std::vector<ShardLane*> lane_ptrs;
  const uint32_t per_lane = config.device_count / shards;
  const uint32_t remainder = config.device_count % shards;
  uint32_t begin = 0;
  for (uint32_t i = 0; i < shards; ++i) {
    const uint32_t end = begin + per_lane + (i < remainder ? 1 : 0);
    FlightRecorder* recorder =
        i < config.shard.shard_recorders.size() ? config.shard.shard_recorders[i] : nullptr;
    lanes.push_back(std::make_unique<DistrictShardLane>(
        config, geo, bus, i, shards, begin, end, restoring ? &rs : nullptr, recorder));
    lane_ptrs.push_back(lanes.back().get());
    begin = end;
  }
  report.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();

  ThreadPool pool(config.shard.workers != 0 ? config.shard.workers : shards);
  ShardWindowOptions opts;
  opts.start = SimTime::Micros(restoring ? rs.barrier_us : 0);
  opts.horizon = config.horizon;
  opts.window = config.shard.window.micros() > 0 ? config.shard.window : SimTime::Days(90);
  opts.checkpoint_every = config.snapshot.checkpoint_every;
  opts.on_barrier = [&bus] { bus.FlipPlanes(); };
  opts.progress = config.shard.shard_progress;
  opts.replica_progress = config.control.progress;
  if (config.snapshot.checkpoint_every.micros() > 0) {
    opts.on_checkpoint = [&](SimTime barrier) {
      SaveShardCheckpoint(config, geo, lanes, restoring ? rs.base : LaneTotals{}, years,
                          barrier, report);
    };
  }

  const auto wall_start = std::chrono::steady_clock::now();
  report.events_executed = RunShardWindows(pool, lane_ptrs, opts);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count() -
      report.save_seconds;

  LaneTotals totals;
  totals.yearly_service_us.assign(years, 0);
  if (restoring) {
    totals = rs.base;
  }
  size_t fleet_bytes = 0;
  for (auto& lane : lanes) {
    lane->FinishAt(config.horizon);
    lane->MergeInto(totals);
    fleet_bytes += lane->fleet_bytes();
  }

  report.device_failures = totals.device_failures;
  report.device_replacements = totals.device_replacements;
  report.gateway_failures = totals.gateway_failures;
  report.gateway_repairs = totals.gateway_repairs;
  report.fleet_bytes_per_device =
      config.device_count > 0 ? static_cast<double>(fleet_bytes) / config.device_count : 0.0;

  const double total = config.horizon.ToSeconds() * config.device_count;
  report.mean_device_availability = U128Seconds(totals.alive_us) / total;
  report.mean_service_availability = U128Seconds(totals.service_us) / total;
  report.yearly_service.resize(years);
  for (uint32_t y = 0; y < years; ++y) {
    report.yearly_service[y] = U128Seconds(totals.yearly_service_us[y]) /
                               (YearSpan(config.horizon, y).ToSeconds() * config.device_count);
    report.min_yearly_service = std::min(report.min_yearly_service, report.yearly_service[y]);
  }
  return report;
}

}  // namespace centsim
