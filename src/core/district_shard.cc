// Sharded district engine: one city advanced by S lanes that share
// nothing. See DESIGN.md "Sharded engine"; the short version:
//
//  - Sites partition into contiguous ranges, one per lane. Each lane runs
//    the serial run's DistrictModel over its range on its own Simulation;
//    the geometry (deployment plan, gateway grid, coverage cells) is built
//    once on the main thread, and every lane's model shares its cells.
//  - The only coupling between sites is gateway up/down state: a
//    transition of gateway g changes the service counts of every lane.
//    Gateway fail/repair is an autonomous process (device state never
//    feeds back into it) whose every draw is keyed by (gateway, ordinal),
//    so each lane replays every gateway's timeline itself: one cursor per
//    gateway, its next transition armed on the lane's own scheduler, and
//    each transition applied to the lane's sites in g's cells. Lane 0
//    alone counts them. No lane ever needs another lane's events.
//  - A lane's scheduler holds only zone visits and gateway transitions. Its
//    unit failures wait in its model's failure calendar, and a drain to a
//    barrier is the model's RunTo (district_model.h). A checkpoint saves
//    them as the fleet's deadlines and the visits follow from the config.
//  - The lanes drain together to barriers that exist only for observers:
//    every 90 simulated days and at each checkpoint grid point, where the
//    run writes the checkpoint and publishes its progress row. Each drain
//    is one ParallelFor over the lanes, on the caller and the run's pool,
//    so any thread may drain any lane; results never depend on which.
//  - Determinism: the lanes differ from the serial run only in their life
//    keys and gateway cursors. Every draw is keyed by an (entity, ordinal)
//    derivation of a lane-independent root, the model integrates
//    availability in exact integers (order-free sums), and same-timestamp
//    event orders that differ between shard layouts are tie-commutative
//    (measure-only coupling: coverage affects accounting, never dynamics or
//    RNG). Reports are therefore bit-identical across any shard and worker
//    count.
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
#include "src/sim/run_progress.h"
#include "src/sim/thread_pool.h"
#include "src/snapshot/snapshot.h"
#include "src/telemetry/run_manifest.h"

namespace centsim {
namespace {

// Lane-independent RNG roots: every lane derives them from a Simulation
// seeded with config.seed, and every draw is keyed by (entity, ordinal),
// so a sample's value never depends on which lane takes it or in what
// order. 24 ordinal bits leave 40 bits of entity index.
constexpr uint64_t kShardDeviceRoot = 0x7368646400000001ULL;   // "shdd"
constexpr uint64_t kShardGatewayRoot = 0x7368646400000002ULL;

inline uint64_t EntityKey(uint64_t index, uint32_t ordinal) {
  return (index << 24) | ordinal;
}

// Simulated time between progress barriers.
constexpr int64_t kBarrierCadenceUs = SimTime::Days(90).micros();

// Snapshot chunk tags ("district-shard" experiment). The structural
// digest is the model's (DistrictStructuralDigest): the shard layout
// (shards/workers) is deliberately absent, so a snapshot taken under
// K shards restores under any K'.
constexpr uint32_t kShardFleetChunk = SnapshotTag('f', 'l', 'e', 't');
constexpr uint32_t kShardGatewayChunk = SnapshotTag('g', 'w', 'r', 'c');
constexpr uint32_t kShardAccumChunk = SnapshotTag('a', 'c', 'c', 'u');

// Gateway fail/repair recurrence: the next transition of one gateway. Every
// lane advances its copy as that transition fires, a checkpoint saves it,
// and a restoring run resumes from the saved tuple. Each life draw derives
// a fresh stream keyed by (gateway, ordinal), so replaying the advance
// sequence consumes no shared RNG state and every lane draws the same
// timeline.
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
  std::vector<GatewayCursor> cursors;  // Per gateway.
  // Global totals as of the barrier.
  SiteSeconds alive;
  SiteSeconds service;
  DistrictReport counts;
  uint64_t executed = 0;  // Events executed across lanes.
};

// One lane: the serial run's DistrictModel over a site range, with the
// lane's per-entity life keys and one cursor per gateway.
class DistrictShardLane {
 public:
  DistrictShardLane(const DistrictConfig& config, const DistrictGeometry& geo, uint32_t lane,
                    uint32_t begin, uint32_t end, const RestoreState* restore)
      : config_(config),
        geo_(geo),
        lane_(lane),
        begin_(begin),
        end_(end),
        restore_(restore),
        sim_(config.seed),
        dev_root_(sim_.StreamFor(kShardDeviceRoot)),
        gw_root_(sim_.StreamFor(kShardGatewayRoot)) {
    sim_.trace().EnableRetention(false);
    if (restore_ != nullptr && config_.snapshot.branch_salt != 0) {
      dev_root_ = dev_root_.Derive(config_.snapshot.branch_salt);
      gw_root_ = gw_root_.Derive(config_.snapshot.branch_salt);
    }
  }

  // Builds the lane's model and arms its first events, on whichever thread
  // claims the lane. A lane records nothing: only the thread that started
  // the run writes to its flight recorder.
  void Setup() {
    model_.emplace(sim_, config_, report_, geo_, begin_, end_, /*recorder=*/nullptr);
    if (restore_ != nullptr) {
      SetupFromRestore();
      return;
    }

    ArmVisits(SimTime());
    // t = 0: every gateway up.
    const uint32_t n_gw = model_->gateway_count();
    for (uint32_t g = 0; g < n_gw; ++g) {
      model_->SetGatewayAt(g, true, sim_.Now());
    }
    for (uint32_t idx = 0; idx < model_->size(); ++idx) {
      model_->DeployAt(idx, sim_.Now());
      ArmLife(idx, sim_.Now());
    }
    cursors_.reserve(n_gw);
    for (uint32_t g = 0; g < n_gw; ++g) {
      cursors_.push_back(InitialCursor(gw_root_, model_->gateway_bom(), g));
      ArmGateway(g);
    }
  }

  // Runs every event at or before `barrier` and leaves the clock there.
  void DrainTo(SimTime barrier) { model_->RunTo(barrier); }

  // Read with the lanes quiescent: the events the lane has run, its
  // calendar's failures included (Scheduler::RunUnqueued), the pending
  // scheduler events and failures, and a lower bound on the earliest of
  // them (SimTime::Max() when none).
  uint64_t executed() { return sim_.scheduler().executed_count(); }
  uint64_t pending() {
    return sim_.scheduler().pending_count() + model_->calendar().pending();
  }
  SimTime EarliestPending() {
    return std::min(sim_.scheduler().EarliestPending(), model_->calendar().Earliest());
  }

  // Model hook: a visit's dead slots, ascending, at `at` (== Now).
  void RedeployAt(std::span<const uint32_t> slots, SimTime at) {
    for (uint32_t idx : slots) {
      model_->DeployAt(idx, at);
      ArmLife(idx, at);
    }
  }

  // --- Read on the run's thread, lanes quiescent -------------------------

  const DistrictModel& model() const { return *model_; }
  // Writes the lane's pending failures into its fleet's deadlines.
  void StampDeadlines() { model_->calendar().StampDeadlines(); }
  // Gateway g's next transition, the same in every lane at a barrier.
  const GatewayCursor& cursor(uint32_t g) const { return cursors_[g]; }

  // Adds the lane's integrals through its clock, and its counts.
  void AddTotalsTo(SiteSeconds& alive, SiteSeconds& service, DistrictReport& counts) {
    model_->AccumulateTo(sim_.Now());
    alive.Add(model_->alive_seconds());
    service.Add(model_->service_seconds());
    AddCounts(report_, counts);
  }

 private:
  // The loader checked every slot's covering count against the restored
  // gateway states (LoadShardSnapshot).
  void SetupFromRestore() {
    const RestoreState& rs = *restore_;
    const SimTime barrier = SimTime::Micros(rs.barrier_us);
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
    // The visits after the barrier, then each live unit's pending failure
    // (its deadline) into the calendar. A visit wins a tie with a failure
    // by RunTo's drain order, as in the straight run.
    ArmVisits(barrier + SimTime::Micros(1));
    model_->calendar().ArmDeadlines();
    cursors_ = rs.cursors;
    for (uint32_t g = 0; g < cursors_.size(); ++g) {
      ArmGateway(g);
    }
  }

  // Arms every zone's visits from `from`: every lane arms them all (the
  // same list from the shared seed) and walks its own sites of the zone. A
  // resumed lane keeps the visits strictly after its barrier: one at the
  // barrier ran in the saving run.
  void ArmVisits(SimTime from) {
    for (const BatchVisit& v :
         BatchVisits(sim_, DistrictBatches(config_), config_.horizon, from)) {
      const uint32_t zone = v.zone;
      sim_.scheduler().ScheduleAt(
          v.at, [this, zone] { model_->ZoneVisitAt(zone, sim_.Now(), *this); }, kDistrictVisit);
    }
  }

  // Arms the transition gateway g's cursor holds.
  void ArmGateway(uint32_t g) {
    const GatewayCursor& c = cursors_[g];
    sim_.scheduler().ScheduleAt(SimTime::Micros(c.next_at_us), [this, g] { OnGateway(g); },
                                c.next_is_down != 0 ? kDistrictGatewayFail
                                                    : kDistrictGatewayRepair);
  }

  // Applies gateway g's transition to this lane's sites in its cells (lane
  // 0's copy also counts it, exactly once fleet-wide), then advances the
  // cursor and arms the next transition.
  void OnGateway(uint32_t g) {
    GatewayCursor& c = cursors_[g];
    const bool up = c.next_is_down == 0;
    if (lane_ != 0) {
      model_->SetGatewayAt(g, up, sim_.Now());
    } else if (up) {
      model_->GatewayRepairAt(g, sim_.Now());
    } else {
      model_->GatewayFailAt(g, sim_.Now());
    }
    AdvanceCursor(c, gw_root_, model_->gateway_bom(), g, config_.gateway_repair_delay.micros());
    ArmGateway(g);
  }

  // Draws the life of the unit deployed at `at` and arms its failure, one
  // life at a time: keyed by (global index, unit generation), the draw is
  // identical no matter which lane owns the site or when its replacement
  // lands.
  void ArmLife(uint32_t idx, SimTime at) {
    RandomStream dev_rng =
        dev_root_.Derive(EntityKey(begin_ + idx, model_->fleet().unit_generation(idx)));
    model_->ArmFailure(idx, at + model_->device_bom().SampleLife(dev_rng).life);
  }

  const DistrictConfig& config_;
  const DistrictGeometry& geo_;
  const uint32_t lane_;
  const uint32_t begin_;
  const uint32_t end_;
  const RestoreState* restore_;

  Simulation sim_;
  DistrictReport report_;  // Lane-local counts.
  std::optional<DistrictModel> model_;
  RandomStream dev_root_;
  RandomStream gw_root_;

  std::vector<GatewayCursor> cursors_;  // Per gateway; each one's next is armed.
};

using Lanes = std::vector<std::unique_ptr<DistrictShardLane>>;

// Events the lanes have run, together.
uint64_t EventsExecuted(const Lanes& lanes) {
  uint64_t executed = 0;
  for (const auto& lane : lanes) {
    executed += lane->executed();
  }
  return executed;
}

void SaveShardCheckpoint(const DistrictConfig& config, const Lanes& lanes, SimTime barrier,
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
    lane->StampDeadlines();
    for (uint32_t idx = 0; idx < lane->model().size(); ++idx) {
      EncodeFleetSlot(lane->model().SaveSlot(idx), fleet);
    }
  }
  writer.Add(kShardFleetChunk, fleet);

  ByteWriter gw;
  const uint32_t n_gw = lanes[0]->model().gateway_count();
  gw.U64(n_gw);
  for (uint32_t g = 0; g < n_gw; ++g) {
    const GatewayCursor& c = lanes[0]->cursor(g);
    gw.U8(lanes[0]->model().gateway_up(g) ? 1 : 0);
    gw.U8(c.next_is_down);
    gw.U32(c.ordinal);
    gw.I64(c.next_at_us);
  }
  writer.Add(kShardGatewayChunk, gw);

  SiteSeconds alive(config.horizon);
  SiteSeconds service(config.horizon);
  DistrictReport counts;
  for (const auto& lane : lanes) {
    lane->AddTotalsTo(alive, service, counts);
  }
  ByteWriter acc;
  acc.I64(barrier.micros());
  EncodeDistrictTotals(alive, service, counts, acc);
  acc.U64(EventsExecuted(lanes));
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

  const SimTime barrier = SimTime::Micros(rs.barrier_us);
  *error = CheckRestoredBarrier(barrier, config.horizon);
  if (!error->empty()) {
    return false;
  }
  ServiceCounts restored(*geo.cells);
  for (uint32_t g = 0; g < n_gw; ++g) {
    *error = CheckRestoredGatewayNext(g, rs.gw_up[g] != 0, rs.cursors[g].next_is_down != 0,
                                      rs.cursors[g].next_at_us, barrier);
    if (!error->empty()) {
      return false;
    }
    restored.SetGateway(g, rs.gw_up[g] != 0);
  }
  for (uint32_t d = 0; d < config.device_count; ++d) {
    *error = CheckRestoredCovering(d, rs.slots[d].covering, restored);
    if (error->empty()) {
      *error = CheckRestoredDeadline(d, rs.slots[d], barrier);
    }
    if (!error->empty()) {
      return false;
    }
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

  Lanes lanes;
  const uint32_t per_lane = config.device_count / shards;
  const uint32_t remainder = config.device_count % shards;
  uint32_t begin = 0;
  for (uint32_t i = 0; i < shards; ++i) {
    const uint32_t end = begin + per_lane + (i < remainder ? 1 : 0);
    lanes.push_back(std::make_unique<DistrictShardLane>(config, geo, i, begin, end,
                                                        rs ? &*rs : nullptr));
    begin = end;
  }
  report.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();

  // Threads draining lanes, the caller's included: `workers`, else the
  // caller and the spare cores, and never more than lanes.
  const uint32_t threads = std::min(
      shards, config.shard.workers != 0 ? config.shard.workers : ThreadPool::SpareCores() + 1);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads - 1);
  }
  const auto for_each_lane = [&lanes, &pool](const auto& fn) {
    ParallelFor(pool.get(), lanes.size(), [&lanes, &fn](size_t i) { fn(*lanes[i]); });
  };

  const auto wall_start = std::chrono::steady_clock::now();
  for_each_lane([](DistrictShardLane& lane) { lane.Setup(); });
  // Barriers every 90 days and at each checkpoint grid point, counted from
  // the start (a resumed run's barrier); results never depend on where
  // they fall.
  const int64_t horizon = config.horizon.micros();
  const int64_t every = config.snapshot.checkpoint_every.micros();
  ProgressCell* const progress = config.control.progress;
  for (int64_t barrier = rs ? rs->barrier_us : 0; barrier < horizon;) {
    int64_t next = std::min(barrier + kBarrierCadenceUs, horizon);
    if (every > 0) {
      next = std::min(next, (barrier / every + 1) * every);
    }
    barrier = next;
    for_each_lane([barrier](DistrictShardLane& lane) { lane.DrainTo(SimTime::Micros(barrier)); });
    if (every > 0 && barrier % every == 0 && barrier < horizon) {
      SaveShardCheckpoint(config, lanes, SimTime::Micros(barrier), report);
    }
    if (progress != nullptr) {
      uint64_t pending = 0;
      SimTime next_event = SimTime::Max();
      for (const auto& lane : lanes) {
        pending += lane->pending();
        next_event = std::min(next_event, lane->EarliestPending());
      }
      progress->Publish(barrier, next_event.micros(), EventsExecuted(lanes), pending, pending);
    }
  }
  report.events_executed = EventsExecuted(lanes);
  if (progress != nullptr) {
    progress->MarkDone(horizon, report.events_executed);
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count() -
      report.save_seconds;

  SiteSeconds alive(config.horizon);
  SiteSeconds service(config.horizon);
  size_t fleet_bytes = 0;
  for (auto& lane : lanes) {
    lane->AddTotalsTo(alive, service, report);
    fleet_bytes += lane->model().fleet().MemoryBytes();
  }
  report.fleet_bytes_per_device = static_cast<double>(fleet_bytes) / config.device_count;
  FillDistrictAvailability(alive, service, config, report);
  return report;
}

}  // namespace centsim
