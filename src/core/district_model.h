// The district scenario's model (see district.h), written once and run by
// its three time-advance engines: serial (district.cc), sampled
// (district_sampled.cc) and sharded (district_shard.cc).
//
// DistrictModel owns a site range's fleet and service counts over the
// coverage cells built from the geometry, the state transitions (each at
// an explicit time), the exact availability integrals (SiteSeconds, shared
// with the century model), the `district` snapshot chunks and report
// assembly. The serial and sampled engines run it over the whole district,
// recording into the run's flight recorder; each shard lane runs it over
// one contiguous site range with no recorder, on whichever thread drains
// the lane, and all lanes share one set of coverage cells. An engine keeps
// only how time advances: which events it arms where, and how it keys its
// lifetime draws. Every engine arms the same zone visits, the BatchVisits
// list over DistrictBatches' cadence. A zone visit hands
// the engine its dead sites as one ascending batch: the serial engine
// draws the batch's lives together (on spare cores once the batch is
// large) and then deploys in site order; the sampled engine and the lanes
// deploy one site at a time.
//
// Unit failures, nearly every event of a detailed run, never enter the
// scheduler of the serial engine or a lane: each waits in the model's
// FailureCalendar (failure_calendar.h, shared with the detailed century),
// which RunTo drains between scheduler events (zone visits, gateway
// transitions). The sampled engine's detailed windows arm failures on the
// scheduler.

#ifndef SRC_CORE_DISTRICT_MODEL_H_
#define SRC_CORE_DISTRICT_MODEL_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/city/deployment.h"
#include "src/core/district.h"
#include "src/core/failure_calendar.h"
#include "src/core/fleet.h"
#include "src/core/site_seconds.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/simulation.h"
#include "src/snapshot/bytes.h"
#include "src/snapshot/timer_table.h"

namespace centsim {

// One category per transition kind: the profiler's event category in every
// engine, and the flight-recorder category for the rare ones.
inline constexpr const char* kDistrictDeviceFail = "district.device_fail";
inline constexpr const char* kDistrictVisit = "district.zone_visit";
inline constexpr const char* kDistrictGatewayFail = "district.gateway_fail";
inline constexpr const char* kDistrictGatewayRepair = "district.gateway_repair";

// Domain timer tags of the `district` snapshot format (TimerRecord.tag).
// Operands: visit a=zone b=cycle; gateway timers a=gateway; device failure
// a=slot.
inline constexpr uint64_t kDistrictTimerVisit = 1;
inline constexpr uint64_t kDistrictTimerGatewayFail = 2;
inline constexpr uint64_t kDistrictTimerGatewayRepair = 3;
inline constexpr uint64_t kDistrictTimerDeviceFail = 4;

// Sites grouped by their exact covering-gateway set. All sites of a cell
// are covered by the same gateways, so at every instant they share one
// count of operational covering gateways: service can be counted per cell
// instead of per site. Cell 0 holds the uncovered sites (it may be empty);
// the others are numbered in order of their first site.
struct CoverageCells {
  std::vector<uint32_t> site_cell;   // Per site.
  std::vector<uint32_t> cell_sites;  // Sites per cell.
  std::vector<uint32_t> offsets;     // Size gateways + 1.
  std::vector<uint32_t> cell_ids;    // Gateway g covers [offsets[g], offsets[g+1]), ascending.

  uint32_t count() const { return static_cast<uint32_t>(cell_sites.size()); }
  uint32_t gateway_count() const { return static_cast<uint32_t>(offsets.size()) - 1; }
  // Fraction of sites within range of at least one gateway.
  double CoveredFraction() const {
    const uint32_t sites = static_cast<uint32_t>(site_cell.size());
    return static_cast<double>(sites - cell_sites[0]) / static_cast<double>(sites);
  }
  uint32_t begin(uint32_t g) const { return offsets[g]; }
  uint32_t end(uint32_t g) const { return offsets[g + 1]; }
};

// Groups `site_count` sites into cells by partition refinement over the
// coverage map: linear in sites plus map entries.
CoverageCells BuildCoverageCells(const CoverageCsr& coverage, uint32_t site_count);

// Service accounting over the coverage cells, shared by every district
// engine: each gateway's up flag and, per cell, the count of operational
// gateways covering it and of alive sites in it. A site is in service
// while it is alive and its cell's up count is non-zero, so a deploy or a
// failure touches one cell and a gateway flip touches only that gateway's
// cells. A model over a site range has only its own sites alive in it;
// the covered total always counts every site of the geometry.
class ServiceCounts {
 public:
  // Every gateway down, no site alive.
  explicit ServiceCounts(const CoverageCells& cells)
      : cells_(cells), gateway_up_(cells.gateway_count(), 0), cells_state_(cells.count()) {}

  uint32_t gateway_count() const { return static_cast<uint32_t>(gateway_up_.size()); }
  bool gateway_up(uint32_t g) const { return gateway_up_[g] != 0; }
  // Operational gateways covering `site`.
  uint32_t covering(uint32_t site) const { return cells_state_[cells_.site_cell[site]].up; }
  // Alive sites with an operational covering gateway.
  uint64_t in_service() const { return in_service_; }
  // Sites, alive or not, with an operational covering gateway.
  uint64_t covered() const { return covered_; }

  // A gateway flip; a no-op when `g` is already in that state.
  void SetGateway(uint32_t g, bool up) {
    if (gateway_up(g) == up) {
      return;
    }
    gateway_up_[g] = up ? 1 : 0;
    for (uint32_t k = cells_.begin(g); k < cells_.end(g); ++k) {
      const uint32_t c = cells_.cell_ids[k];
      CellState& cell = cells_state_[c];
      const bool crossed = up ? cell.up++ == 0 : --cell.up == 0;
      if (!crossed) {
        continue;
      }
      // The cell's up count crossed zero: every site in it changes coverage.
      if (up) {
        in_service_ += cell.alive;
        covered_ += cells_.cell_sites[c];
      } else {
        in_service_ -= cell.alive;
        covered_ -= cells_.cell_sites[c];
      }
    }
  }

  // The site's unit went from dead to alive, or from alive to dead.
  void SiteUp(uint32_t site) {
    CellState& cell = cells_state_[cells_.site_cell[site]];
    ++cell.alive;
    in_service_ += cell.up != 0 ? 1 : 0;
  }
  void SiteDown(uint32_t site) {
    CellState& cell = cells_state_[cells_.site_cell[site]];
    --cell.alive;
    in_service_ -= cell.up != 0 ? 1 : 0;
  }

 private:
  struct CellState {
    uint32_t up = 0;
    uint32_t alive = 0;
  };

  const CoverageCells& cells_;
  std::vector<uint8_t> gateway_up_;
  std::vector<CellState> cells_state_;
  uint64_t in_service_ = 0;
  uint64_t covered_ = 0;
};

// Restore check shared by the district snapshot readers: a slot saved with
// `saved` operational gateways covering it must match the count the
// restored gateway states give. Empty when they agree, else an error
// naming the site.
std::string CheckRestoredCovering(uint32_t site, uint32_t saved, const ServiceCounts& service);

// Geometry every engine rebuilds from the config's structural fields: the
// deployment plan, the gateway grid planned from the radio range, and the
// coverage cells of the sites within range of each gateway, which every
// model built from this geometry shares.
struct DistrictGeometry {
  explicit DistrictGeometry(const DistrictConfig& config);

  DeploymentPlan plan;
  std::vector<Site> gateway_sites;
  std::shared_ptr<const CoverageCells> cells;
};

// The district's one device class.
DeviceClassSpec DistrictSiteClass(const DistrictConfig& config);

// The roadworks cadence device replacement rides: one zone per grid cell.
BatchProjectParams DistrictBatches(const DistrictConfig& config);

// Canonical encoding of everything an engine rebuilds from config. Runs
// with equal digests rebuild identical geometry and RNG roots, so a
// snapshot's mutable state can be overlaid. Policy fields consumed at
// event time (repair delay) and the engine choice are deliberately absent.
std::string DistrictStructuralDigest(const DistrictConfig& config);

// The totals both district snapshot formats carry, in this order: the
// alive and in-service integrals, the per-year in-service integrals, and
// the device failure, device replacement, gateway failure and gateway
// repair counts. Decode restores the alive total, the whole in-service
// integral and the four counts, and returns false on a truncated chunk or
// one shaped for another horizon.
void EncodeDistrictTotals(const SiteSeconds& alive, const SiteSeconds& service,
                          const DistrictReport& counts, ByteWriter& w);
bool DecodeDistrictTotals(ByteReader& r, SiteSeconds* alive, SiteSeconds* service,
                          DistrictReport* counts);

// Fills the report's availability from the district's two integrals over
// all of the config's sites: the one conversion every engine makes.
void FillDistrictAvailability(const SiteSeconds& alive, const SiteSeconds& service,
                              const DistrictConfig& config, DistrictReport& report);

class DistrictModel {
 public:
  // The whole district, recording rare transitions into the run's flight
  // recorder. Builds the geometry and keeps only its cells: the site plan
  // is freed once the fleet is built.
  DistrictModel(Simulation& sim, const DistrictConfig& config, DistrictReport& report);
  // Sites [begin, end) of `geo` (local slot = site index - begin), sharing
  // its coverage cells. Rare transitions go to `recorder` (may be null).
  DistrictModel(Simulation& sim, const DistrictConfig& config, DistrictReport& report,
                const DistrictGeometry& geo, uint32_t begin, uint32_t end,
                FlightRecorder* recorder);
  DistrictModel(const DistrictModel&) = delete;
  DistrictModel& operator=(const DistrictModel&) = delete;

  DistrictReport& report() { return report_; }
  DeviceFleet& fleet() { return fleet_; }
  const DeviceFleet& fleet() const { return fleet_; }
  uint32_t size() const { return end_ - begin_; }
  const SeriesSystem& device_bom() const { return fleet_.class_spec(cls_).hardware; }
  const SeriesSystem& gateway_bom() const { return gateway_bom_; }
  // The run's RNG root (re-keyed by a branch salt on restore).
  const RandomStream& rng() const { return rng_; }
  uint32_t gateway_count() const { return service_.gateway_count(); }
  bool gateway_up(uint32_t g) const { return service_.gateway_up(g); }
  // Alive sites of this range with an operational covering gateway.
  uint64_t in_service() const { return service_.in_service(); }
  // Alive and in-service site-microseconds up to the last transition.
  SiteSeconds& alive_seconds() { return alive_seconds_; }
  const SiteSeconds& alive_seconds() const { return alive_seconds_; }
  SiteSeconds& service_seconds() { return service_seconds_; }
  const SiteSeconds& service_seconds() const { return service_seconds_; }

  // --- Transitions at an explicit time (idx = local slot) -----------------
  // The engine draws and arms each successor (device failure, gateway
  // repair or failure) itself.

  // Powers the site's unit up (a no-op on the columns if it is alive).
  void DeployAt(uint32_t idx, SimTime at) {
    AccumulateTo(at);
    if (!fleet_.alive(idx)) {
      fleet_.DeployAt(idx, at);
      service_.SiteUp(begin_ + idx);
    }
  }

  void DeviceFailAt(uint32_t idx, SimTime at) {
    AccumulateTo(at);
    if (fleet_.alive(idx)) {
      service_.SiteDown(begin_ + idx);
    }
    fleet_.MarkFailedAt(idx, at);
    ++report_.device_failures;
  }

  // A batch project reaches `zone`: its dead sites in this range, in one
  // ascending batch, are redeployed by `engine.RedeployAt(slots, at)`, the
  // engine's deploy-and-arm, and then counted as replacements.
  template <typename Engine>
  void ZoneVisitAt(uint32_t zone, SimTime at, Engine& engine) {
    Record(kDistrictVisit, at, zone);
    visit_sites_.clear();
    for (uint32_t idx : zone_sites_[zone]) {
      if (!fleet_.alive(idx)) {
        visit_sites_.push_back(idx);
      }
    }
    engine.RedeployAt(visit_sites_, at);
    report_.device_replacements += visit_sites_.size();
  }

  void GatewayFailAt(uint32_t g, SimTime at);
  void GatewayRepairAt(uint32_t g, SimTime at);
  // Gateway up/down without the fail/repair accounting (initial bring-up,
  // and every shard lane but lane 0, which alone counts each transition).
  void SetGatewayAt(uint32_t g, bool up, SimTime at);

  // --- Unit failures (the serial engine and the lanes) -------------------

  // Arms the failure of local slot `idx`'s unit at `at` in the calendar.
  void ArmFailure(uint32_t idx, SimTime at) { calendar_.Arm(at, idx); }

  // Runs every scheduler event and armed failure at or before `limit` in
  // time order and leaves the clock at `limit` (FailureCalendar::RunTo).
  // Each failure is counted and profiled under kDistrictDeviceFail.
  void RunTo(SimTime limit);

  const FailureCalendar& calendar() const { return calendar_; }

  // Integrates alive and in-service site-time up to `now`; called before
  // every change.
  void AccumulateTo(SimTime now) {
    alive_seconds_.AdvanceTo(now, static_cast<int64_t>(fleet_.alive_count()));
    service_seconds_.AdvanceTo(now, static_cast<int64_t>(service_.in_service()));
  }

  // --- Snapshot state (both formats) --------------------------------------

  // The slot of site `idx`, with its cell's operational covering count.
  DeviceFleet::SlotState SaveSlot(uint32_t idx) const {
    DeviceFleet::SlotState slot = fleet_.SaveSlotState(idx);
    slot.covering = service_.covering(begin_ + idx);
    return slot;
  }

  // Overlays saved state on a fresh model: every gateway's state, then each
  // slot (whose covering count the reader has checked against those
  // states with CheckRestoredCovering), then EndRestore, which recounts the
  // fleet and moves the integration point to `last_change`.
  void RestoreGateway(uint32_t g, bool up) { service_.SetGateway(g, up); }
  void RestoreSlot(uint32_t idx, const DeviceFleet::SlotState& slot) {
    fleet_.RestoreSlotState(idx, slot);
    if (fleet_.alive(idx)) {
      service_.SiteUp(begin_ + idx);
    }
  }
  void EndRestore(SimTime last_change);

  // --- Checkpoint/restore (`district` snapshots; whole-district models) ---

  // Writes a `district` checkpoint at the quiescent `barrier` carrying the
  // engine's pending timers.
  void SaveCheckpoint(SimTime barrier, const std::vector<TimerRecord>& timers);

  // Restores from the plan's resume snapshot, if there is one: overlays the
  // model state, restores the clock, hands the pending timer records to
  // `rearm` (false + error refuses them) and applies the branch salt. Dies
  // on a bad snapshot. Returns false on a fresh start.
  using RearmFn = std::function<bool(const std::vector<TimerRecord>&, std::string* error)>;
  bool Resume(const RearmFn& rearm);

  // Closes the integrals at the horizon and fills the report's results.
  void Finish();

 private:
  bool Restore(const std::string& path, const RearmFn& rearm, std::string* error);
  void Record(const char* category, SimTime at, uint64_t arg) {
    if (recorder_ != nullptr) {
      recorder_->Record(category, at, arg);
    }
  }

  Simulation& sim_;
  const DistrictConfig& config_;
  DistrictReport& report_;
  const uint32_t begin_;
  const uint32_t end_;
  FlightRecorder* recorder_;
  DeviceFleet fleet_;
  uint32_t cls_ = 0;
  RandomStream rng_;
  const SeriesSystem gateway_bom_;

  const std::shared_ptr<const CoverageCells> cells_;
  ServiceCounts service_;
  std::vector<std::vector<uint32_t>> zone_sites_;  // Ascending local slots.
  std::vector<uint32_t> visit_sites_;              // The current visit's batch.
  FailureCalendar calendar_;

  SiteSeconds alive_seconds_;
  SiteSeconds service_seconds_;
};

// The sampled engine, which RunDistrictScenario runs when
// config.sampling.enabled(). Detailed windows run the device/gateway/visit
// events on the real scheduler; between windows a heap-merged walk
// advances the same transitions in global time order
// (district_sampled.cc).
DistrictReport RunSampledDistrictScenario(const DistrictConfig& config);

// Runs a serial or sampled engine on a fresh simulation of the config's
// seed, with the config's metrics registry and run control attached for
// the run's duration.
template <typename Engine>
DistrictReport RunDistrictEngine(const DistrictConfig& config) {
  Simulation sim(config.seed);
  sim.trace().EnableRetention(false);
  // Bind instruments before construction so class interning can grab them.
  sim.SetMetrics(config.metrics);
  sim.scheduler().AttachRunControl(config.control);
  DistrictReport report;
  const auto build_start = std::chrono::steady_clock::now();
  Engine engine(sim, config, report);
  report.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();
  engine.Run();
  // Slot cleared first inside DetachRunControl: after this line no
  // watchdog thread can reach the scheduler we are about to destroy.
  sim.scheduler().DetachRunControl(config.control);
  sim.SetMetrics(nullptr);
  return report;
}

}  // namespace centsim

#endif  // SRC_CORE_DISTRICT_MODEL_H_
