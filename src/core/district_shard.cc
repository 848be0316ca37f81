// Sharded district engine: one city advanced by S lanes with conservative
// windowed synchronization. See DESIGN.md "Sharded engine" for the full
// protocol; the short version:
//
//  - Sites partition into contiguous ranges, one per lane. Each lane runs
//    the serial run's DistrictModel over its range on its own Simulation;
//    the geometry (deployment plan, gateway grid, coverage cells) is built
//    once on the main thread, and every lane's model shares its cells.
//  - The only cross-shard coupling is gateway up/down state: a transition
//    of gateway g must adjust the service counts of every lane. Each
//    lane's model counts service over the shared cells with only its own
//    sites alive, so a flip costs a lane O(cells of g) whether or not it
//    holds any of g's sites. Gateway fail/repair is an autonomous process
//    (device state never feeds back into it), so the owner lane (g mod S)
//    PRE-SAMPLES the transition timeline: during the window that ends at
//    barrier B it extends every owned gateway's timeline through B + W,
//    scheduling its own local copy immediately and broadcasting the rest
//    via the ShardBus. Messages published in window w are drained at the
//    start of window w+1 — one full window before the earliest time they
//    can fire — so no lane ever receives an event in its past.
//  - Determinism: the lanes differ from the serial run only in their life
//    keys and gateway cursors. Every draw is keyed by an (entity, ordinal)
//    derivation of a lane-independent root, the model integrates
//    availability in exact integers (order-free sums), and same-timestamp
//    event orders that differ between shard layouts are tie-commutative
//    (measure-only coupling: coverage affects accounting, never dynamics or
//    RNG). Reports are therefore bit-identical across any
//    shards/workers/window choice.
//
// The serial engine keys its draws by running counters in global event
// order, so the sharded engine's numbers intentionally differ from it;
// shards == 0 keeps the serial path and its golden digests byte-for-byte.

#include "src/core/district.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
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

// Adds the transition counts lanes merge: device failures and
// replacements, gateway failures and repairs.
void AddCounts(const DistrictReport& from, DistrictReport& to) {
  to.device_failures += from.device_failures;
  to.device_replacements += from.device_replacements;
  to.gateway_failures += from.gateway_failures;
  to.gateway_repairs += from.gateway_repairs;
}

// Everything a "district-shard" snapshot carries, in global index order —
// shard-count-free, so K lanes can save it and K' lanes restore it.
struct RestoreState {
  explicit RestoreState(SimTime horizon) : alive(horizon), service(horizon) {}

  int64_t barrier_us = 0;
  std::vector<DeviceFleet::SlotState> slots;  // Global site order.
  std::vector<uint8_t> gw_up;
  std::vector<GatewayCursor> cursors;  // Committed, per gateway.
  // Global totals as of the barrier.
  SiteSeconds alive;
  SiteSeconds service;
  DistrictReport counts;
  uint64_t executed = 0;  // Events executed across lanes.
};

// A `ShardLane` adapter around DistrictModel: the lane keeps only its
// per-entity life keys, its gateway cursors and their bus broadcasts.
class DistrictShardLane final : public ShardLane {
 public:
  DistrictShardLane(const DistrictConfig& config, const DistrictGeometry& geo, ShardBus& bus,
                    uint32_t lane, uint32_t shards, uint32_t begin, uint32_t end,
                    const RestoreState* restore)
      : config_(config),
        geo_(geo),
        bus_(bus),
        lane_(lane),
        shards_(shards),
        begin_(begin),
        end_(end),
        restore_(restore),
        sim_(config.seed),
        dev_root_(sim_.StreamFor(kShardDeviceRoot)),
        gw_root_(sim_.StreamFor(kShardGatewayRoot)),
        batches_(sim_, DistrictBatches(config), [](uint32_t, uint32_t) {}) {
    sim_.trace().EnableRetention(false);
    // All lanes arm every zone's visits (identical jitter draws from the
    // shared seed) but only walk their own slice of the zone. The filter
    // also implements restore: a resumed run re-draws the full visit grid
    // and keeps only visits strictly after the barrier — barrier-coincident
    // visits already ran in the saving run's DrainToBarrier.
    batches_.SetVisitScheduler([this](SimTime at, uint32_t zone, uint32_t) {
      if (at.micros() > restore_barrier_us_) {
        sim_.scheduler().ScheduleAt(
            at, [this, zone] { model_->ZoneVisitAt(zone, sim_.Now(), *this); }, kDistrictVisit);
      }
    });
    if (restore_ != nullptr && config_.snapshot.branch_salt != 0) {
      dev_root_ = dev_root_.Derive(config_.snapshot.branch_salt);
      gw_root_ = gw_root_.Derive(config_.snapshot.branch_salt);
    }
  }

  // --- ShardLane ----------------------------------------------------------

  void Setup(SimTime cover) override {
    // Built here, on the lane's worker. A lane records nothing: only the
    // thread that started the run writes to its flight recorder.
    model_.emplace(sim_, config_, report_, geo_, begin_, end_, /*recorder=*/nullptr);
    const uint32_t n_gw = model_->gateway_count();
    cursors_.resize(n_gw);
    committed_.resize(n_gw);

    if (restore_ != nullptr) {
      SetupFromRestore(cover);
      return;
    }

    batches_.ScheduleThrough(config_.horizon);
    // t = 0: every gateway up.
    for (uint32_t g = 0; g < n_gw; ++g) {
      model_->SetGatewayAt(g, true, sim_.Now());
    }
    for (uint32_t idx = 0; idx < model_->size(); ++idx) {
      model_->DeployAt(idx, sim_.Now());
      ArmLife(idx, sim_.Now());
    }
    for (uint32_t g = lane_; g < n_gw; g += shards_) {
      cursors_[g] = InitialCursor(gw_root_, model_->gateway_bom(), g);
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
  }

  void AtCheckpointBarrier(SimTime barrier) override {
    model_->AccumulateTo(barrier);
    // Advance the committed cursors through the barrier — the identical
    // draw sequence the emission cursors already consumed, so a restoring
    // run (even a branch-salted one) resumes exactly where emissions up to
    // the barrier left off and re-emits the in-flight (barrier, cover]
    // transitions itself.
    for (uint32_t g = lane_; g < committed_.size(); g += shards_) {
      while (committed_[g].next_at_us <= barrier.micros()) {
        AdvanceCursor(committed_[g], gw_root_, model_->gateway_bom(), g,
                      config_.gateway_repair_delay.micros());
      }
    }
  }

  Scheduler& sched() override { return sim_.scheduler(); }

  // Model hook: a visit's dead slots, ascending, at `at` (== Now).
  void RedeployAt(std::span<const uint32_t> slots, SimTime at) {
    for (uint32_t idx : slots) {
      model_->DeployAt(idx, at);
      ArmLife(idx, at);
    }
  }

  // --- Main-thread accessors (lanes quiescent) ----------------------------

  const DistrictModel& model() const { return *model_; }
  const GatewayCursor& committed_cursor(uint32_t g) const { return committed_[g]; }

  // Adds the lane's integrals, as of its last AccumulateTo, and counts.
  void AddTotalsTo(SiteSeconds& alive, SiteSeconds& service, DistrictReport& counts) const {
    alive.Add(model_->alive_seconds());
    service.Add(model_->service_seconds());
    AddCounts(report_, counts);
  }

  void FinishAt(SimTime horizon) { model_->AccumulateTo(horizon); }

 private:
  // The loader checked every slot's covering count against the restored
  // gateway states (LoadShardSnapshot).
  void SetupFromRestore(SimTime cover) {
    const RestoreState& rs = *restore_;
    const SimTime barrier = SimTime::Micros(rs.barrier_us);
    restore_barrier_us_ = rs.barrier_us;
    for (uint32_t g = 0; g < model_->gateway_count(); ++g) {
      model_->RestoreGateway(g, rs.gw_up[g] != 0);
    }
    for (uint32_t idx = 0; idx < model_->size(); ++idx) {
      model_->RestoreSlot(idx, rs.slots[begin_ + idx]);
    }
    // Lane 0 carries the saved totals and executed count, and the other
    // lanes start from zero, so the lanes' sums continue the saving run's:
    // exact, because the integer integrals split additively at the barrier.
    if (lane_ == 0) {
      model_->alive_seconds() = rs.alive;
      model_->service_seconds() = rs.service;
      AddCounts(rs.counts, report_);
    }
    model_->EndRestore(barrier);
    sim_.scheduler().RestoreClock(barrier, lane_ == 0 ? rs.executed : 0, 0);
    // Visits before failures: straight runs arm every visit at setup, so
    // visits always carry lower sequence numbers than run-time-armed
    // failure events and win same-timestamp ties. Re-arming in this order
    // (then failures in ascending slot order) preserves that.
    batches_.ScheduleThrough(config_.horizon);
    const DeviceFleet& fleet = model_->fleet();
    for (uint32_t idx = 0; idx < model_->size(); ++idx) {
      if (fleet.alive(idx) && fleet.deadline(idx) > barrier) {
        ArmDeviceFailure(idx, fleet.deadline(idx));
      }
    }
    for (uint32_t g = lane_; g < cursors_.size(); g += shards_) {
      cursors_[g] = rs.cursors[g];
      committed_[g] = cursors_[g];
    }
    ExtendOwned(cover.micros());
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
        AdvanceCursor(c, gw_root_, model_->gateway_bom(), g,
                      config_.gateway_repair_delay.micros());
      }
    }
  }

  // One gateway transition, applied to this lane's sites in its cells. The
  // owner's copy also counts it (exactly once fleet-wide).
  void ApplyGateway(uint32_t g, bool up, bool owned) {
    if (!owned) {
      model_->SetGatewayAt(g, up, sim_.Now());
    } else if (up) {
      model_->GatewayRepairAt(g, sim_.Now());
    } else {
      model_->GatewayFailAt(g, sim_.Now());
    }
  }

  void ArmDeviceFailure(uint32_t idx, SimTime at) {
    sim_.scheduler().ScheduleAt(at, [this, idx] { model_->DeviceFailAt(idx, sim_.Now()); },
                                kDistrictDeviceFail);
  }

  // Draws the life of the unit deployed at `at` and arms its failure, one
  // life at a time: keyed by (global index, unit generation), the draw is
  // identical no matter which lane owns the site or when its replacement
  // lands.
  void ArmLife(uint32_t idx, SimTime at) {
    DeviceFleet& fleet = model_->fleet();
    RandomStream dev_rng = dev_root_.Derive(EntityKey(begin_ + idx, fleet.unit_generation(idx)));
    const SimTime fail_at = at + model_->device_bom().SampleLife(dev_rng).life;
    fleet.set_deadline(idx, fail_at);  // Snapshot re-arm source.
    ArmDeviceFailure(idx, fail_at);
  }

  const DistrictConfig& config_;
  const DistrictGeometry& geo_;
  ShardBus& bus_;
  const uint32_t lane_;
  const uint32_t shards_;
  const uint32_t begin_;
  const uint32_t end_;
  const RestoreState* restore_;

  Simulation sim_;
  DistrictReport report_;  // Lane-local counts.
  std::optional<DistrictModel> model_;
  RandomStream dev_root_;
  RandomStream gw_root_;
  BatchProjectScheduler batches_;

  std::vector<GatewayCursor> cursors_;     // Emission cursor, owned g only.
  std::vector<GatewayCursor> committed_;   // Lags at the last barrier.
  int64_t restore_barrier_us_ = -1;
};

void SaveShardCheckpoint(const DistrictConfig& config,
                         const std::vector<std::unique_ptr<DistrictShardLane>>& lanes,
                         SimTime barrier, DistrictReport& report) {
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
    for (uint32_t idx = 0; idx < lane->model().size(); ++idx) {
      EncodeFleetSlot(lane->model().SaveSlot(idx), fleet);
    }
  }
  writer.Add(kShardFleetChunk, fleet);

  ByteWriter gw;
  const uint32_t n_gw = lanes[0]->model().gateway_count();
  gw.U64(n_gw);
  for (uint32_t g = 0; g < n_gw; ++g) {
    const GatewayCursor& c = lanes[g % lanes.size()]->committed_cursor(g);
    gw.U8(lanes[0]->model().gateway_up(g) ? 1 : 0);
    gw.U8(c.next_is_down);
    gw.U32(c.ordinal);
    gw.I64(c.next_at_us);
  }
  writer.Add(kShardGatewayChunk, gw);

  SiteSeconds alive(config.horizon);
  SiteSeconds service(config.horizon);
  DistrictReport counts;
  uint64_t executed = 0;
  for (const auto& lane : lanes) {
    lane->AddTotalsTo(alive, service, counts);
    executed += lane->sched().executed_count();
  }
  ByteWriter acc;
  acc.I64(barrier.micros());
  EncodeDistrictTotals(alive, service, counts, acc);
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
                       const DistrictGeometry& geo, RestoreState& rs, std::string* error) {
  const uint32_t n_gw = geo.cells->gateway_count();
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
  rs.cursors.resize(n_gw);
  for (uint32_t g = 0; g < n_gw && gw.ok(); ++g) {
    rs.gw_up[g] = gw.U8();
    rs.cursors[g].next_is_down = gw.U8();
    rs.cursors[g].ordinal = gw.U32();
    rs.cursors[g].next_at_us = gw.I64();
  }
  if (!gw.ok()) {
    *error = "gateway chunk truncated";
    return false;
  }
  ServiceCounts restored(*geo.cells);
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
  if (!DecodeDistrictTotals(acc, &rs.alive, &rs.service, &rs.counts)) {
    *error = "accumulator chunk truncated or mis-shaped";
    return false;
  }
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
  report.initial_coverage = geo.cells->CoveredFraction();

  std::optional<RestoreState> rs;
  const std::string resume_path = ResolveResumePath(config.snapshot);
  if (!resume_path.empty()) {
    const auto restore_start = std::chrono::steady_clock::now();
    rs.emplace(config.horizon);
    std::string error;
    if (!LoadShardSnapshot(resume_path, config, geo, *rs, &error)) {
      CheckConfigOrDie("district-shard",
                       {"cannot resume from " + resume_path + ": " + error});
    }
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
    lanes.push_back(std::make_unique<DistrictShardLane>(config, geo, bus, i, shards, begin, end,
                                                        rs ? &*rs : nullptr));
    lane_ptrs.push_back(lanes.back().get());
    begin = end;
  }
  report.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();

  ThreadPool pool(ShardWorkerCount(shards, config.shard.workers));
  ShardWindowOptions opts;
  opts.start = SimTime::Micros(rs ? rs->barrier_us : 0);
  opts.horizon = config.horizon;
  opts.window = config.shard.window.micros() > 0 ? config.shard.window : SimTime::Days(90);
  opts.checkpoint_every = config.snapshot.checkpoint_every;
  opts.on_barrier = [&bus] { bus.FlipPlanes(); };
  opts.replica_progress = config.control.progress;
  if (config.snapshot.checkpoint_every.micros() > 0) {
    opts.on_checkpoint = [&](SimTime barrier) {
      SaveShardCheckpoint(config, lanes, barrier, report);
    };
  }

  const auto wall_start = std::chrono::steady_clock::now();
  report.events_executed = RunShardWindows(pool, lane_ptrs, opts);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count() -
      report.save_seconds;

  SiteSeconds alive(config.horizon);
  SiteSeconds service(config.horizon);
  size_t fleet_bytes = 0;
  for (auto& lane : lanes) {
    lane->FinishAt(config.horizon);
    lane->AddTotalsTo(alive, service, report);
    fleet_bytes += lane->model().fleet().MemoryBytes();
  }
  report.fleet_bytes_per_device = static_cast<double>(fleet_bytes) / config.device_count;
  FillDistrictAvailability(alive, service, config, report);
  return report;
}

}  // namespace centsim
