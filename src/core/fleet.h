// DeviceFleet: struct-of-arrays storage for per-device hot state, addressed
// by generation-tagged handles.
//
// The entity tier used to be one heap object graph per device (EdgeDevice →
// EnergyManager → heap-allocated harvester, std::function callbacks, a name
// string per unit) — exactly the object-graph-per-node shape that caps
// simulators like iFogSim around 10^4 nodes. The fleet flips that: all hot
// per-device state lives in flat parallel columns, and everything immutable
// that devices of the same make share (radio parameters, load profile,
// storage chemistry, hardware BOM, vendor string) is interned once as a
// `DeviceClassSpec`.
//
// The columns come in two groups, and the add call decides which a fleet
// allocates. The lifecycle core (handle generation, class, zone, alive
// flag, unit generation, deployed/failed times, hardware-life deadline,
// failure event id: 49 bytes per slot) is what every scenario reads;
// AddSite and AddSites grow only it, which is all the century and the
// district need. The edge group (position, energy storage state and last
// advance, tx grant/deny counts, harvester: 120 bytes per slot) belongs to
// radio-level devices; Add(cls, x, y, zone, harvester) grows both, and
// EdgeDevice adds that way. A fleet holds one kind of slot: mixing the two
// add calls aborts. Edge accessors and energy transitions are valid on
// edge fleets only.
//
// Handles use the same (slot << 32 | generation) pattern the event core's
// EventPool proved out: generation is 1-based and bumped on every slot
// release (skipping 0 on wrap), so a stale handle is detected with one
// comparison and kInvalidDeviceHandle == 0 never aliases a live device.
// Slots recycle LIFO; columns grow by vector doubling — handles are
// indices, not pointers, so growth never invalidates them.
//
// Energy transitions delegate to the same EnergyOps statics the one-device
// EnergyManager wraps, so fleet-resident devices and facade devices compute
// bit-identical doubles.

#ifndef SRC_CORE_FLEET_H_
#define SRC_CORE_FLEET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/city/deployment.h"
#include "src/energy/energy_manager.h"
#include "src/net/commissioning.h"
#include "src/net/packet.h"
#include "src/radio/lora.h"
#include "src/reliability/component.h"
#include "src/sim/simulation.h"
#include "src/telemetry/sensors.h"

namespace centsim {

// Generation-tagged device reference: bits 63..32 slot, bits 31..0
// generation (1-based). 0 is never a valid handle.
using DeviceHandle = uint64_t;
inline constexpr DeviceHandle kInvalidDeviceHandle = 0;

// Immutable per-class record: everything devices of one make share. The
// fleet deduplicates these by content, so a million identical units cost
// one spec, not a million config copies.
struct DeviceClassSpec {
  std::string name = "device";     // Class (not per-unit) name; metric label.
  RadioTech tech = RadioTech::k802154;
  LoraConfig lora;
  // LoRaWAN receive class (class A: uplink-only windows; class B: beacon
  // tracking, charged per beacon by the fabric; class C: continuous
  // listen, priced into the load profile's sleep power).
  LoraDeviceClass rx_class = LoraDeviceClass::kClassA;
  double tx_power_dbm = 0.0;
  SimTime report_interval = SimTime::Hours(1);
  uint32_t payload_bytes = 12;
  std::string vendor;              // Empty => standards-compliant.
  DeviceCoupling coupling = DeviceCoupling::kStandardsCompliant;
  SensorKind sensor_kind = SensorKind::kTemperature;
  LoadProfile load;
  EnergyStorage::Params storage;
  SeriesSystem hardware;           // Reliability BOM (sampled via caller RNG).
};

class DeviceFleet {
 public:
  explicit DeviceFleet(Simulation& sim) : sim_(sim) {}
  DeviceFleet(const DeviceFleet&) = delete;
  DeviceFleet& operator=(const DeviceFleet&) = delete;

  // --- Handle packing (mirrors EventPool) ---------------------------------
  static constexpr uint32_t SlotOf(DeviceHandle h) { return static_cast<uint32_t>(h >> 32); }
  static constexpr uint32_t GenerationOf(DeviceHandle h) { return static_cast<uint32_t>(h); }
  static constexpr DeviceHandle Pack(uint32_t slot, uint32_t generation) {
    return (static_cast<DeviceHandle>(slot) << 32) | generation;
  }

  // --- Classes ------------------------------------------------------------

  // Returns the id of an existing identical class or interns a new one.
  // First intern of a class binds its shared per-tech instruments
  // (device.failures, device.replacements, energy.tx_granted/denied,
  // energy.harvest_j) in that order.
  uint32_t InternClass(const DeviceClassSpec& spec);
  const DeviceClassSpec& class_spec(uint32_t cls) const { return classes_[cls].spec; }
  size_t class_count() const { return classes_.size(); }
  uint64_t class_replacements(uint32_t cls) const { return classes_[cls].replacement_count; }

  // --- Slots --------------------------------------------------------------

  // Reserves the core columns for `devices` slots; an edge fleet's edge
  // group takes the core's capacity at its next Add.
  void Reserve(size_t devices);

  // Adds an edge device of class `cls`: lifecycle core plus position,
  // energy state (the class's initial storage state), tx counters and
  // harvester. Fresh fleets assign slots sequentially (slot == add order),
  // which the scenario models rely on for stable per-site RNG streams.
  // Aborts on a fleet of lifecycle-only sites.
  DeviceHandle Add(uint32_t cls, double x_m, double y_m, uint32_t zone,
                   const HarvesterModel& harvester);

  // Adds a lifecycle-only site of class `cls` in `zone`: the core columns
  // alone. Aborts on a fleet of edge devices.
  DeviceHandle AddSite(uint32_t cls, uint32_t zone);

  // Adds one lifecycle-only site per planned site in [begin, end) (zone
  // from the plan): the whole plan, or a shard lane's column range. Local
  // slot = site index - begin on a fresh fleet. Returns the first added
  // handle.
  DeviceHandle AddSites(const DeploymentPlan& plan, uint32_t cls, uint32_t begin, uint32_t end);

  // Releases a slot: bumps the handle generation (all outstanding handles
  // for it go stale) and recycles it LIFO.
  void Remove(DeviceHandle h);

  // True iff `h` names a live (added, not yet removed) device.
  bool IsLive(DeviceHandle h) const {
    const uint32_t slot = SlotOf(h);
    return slot < handle_gen_.size() && handle_gen_[slot] == GenerationOf(h) &&
           GenerationOf(h) != 0;
  }

  size_t size() const { return handle_gen_.size() - free_.size(); }
  size_t capacity() const { return handle_gen_.size(); }
  uint64_t alive_count() const { return alive_count_; }

  // --- Column accessors (by slot) -----------------------------------------
  uint32_t zone(uint32_t slot) const { return zone_[slot]; }
  uint32_t device_class(uint32_t slot) const { return class_[slot]; }
  bool alive(uint32_t slot) const { return alive_[slot] != 0; }
  uint32_t unit_generation(uint32_t slot) const { return unit_gen_[slot]; }
  SimTime deployed_at(uint32_t slot) const { return deployed_at_[slot]; }
  SimTime failed_at(uint32_t slot) const { return failed_at_[slot]; }
  // The alive unit's pending failure: kept by EdgeDevice and the sampled
  // engines, stamped for a checkpoint by FailureCalendar's.
  SimTime deadline(uint32_t slot) const { return deadline_[slot]; }
  void set_deadline(uint32_t slot, SimTime t) { deadline_[slot] = t; }
  EventId failure_event(uint32_t slot) const { return failure_event_[slot]; }
  void set_failure_event(uint32_t slot, EventId id) { failure_event_[slot] = id; }

  // Edge group (edge fleets only).
  double x(uint32_t slot) const { return x_[slot]; }
  double y(uint32_t slot) const { return y_[slot]; }
  // Raw position columns for batch kernels (ContentionResolver::TxColumns
  // points straight at these; valid until the next Add/Reserve growth).
  const double* x_data() const { return x_.data(); }
  const double* y_data() const { return y_.data(); }
  uint64_t tx_granted(uint32_t slot) const { return tx_[slot].tx_granted; }
  uint64_t tx_denied(uint32_t slot) const { return tx_[slot].tx_denied; }
  const HarvesterModel& harvester(uint32_t slot) const { return harvester_[slot]; }

  // --- Lifecycle transitions ----------------------------------------------

  // Lifecycle transitions take an explicit time: event handlers pass the
  // scheduler's Now(), a sampled engine's fast-forward walk passes times
  // the scheduler clock never visits.

  // Powers a unit up at the slot's site: alive, deployment timestamp `at`,
  // and a new unit generation. Idempotent on `alive` (a redeploy over a
  // live unit still bumps the generation, matching EdgeDevice::ReplaceUnit).
  void DeployAt(uint32_t slot, SimTime at);

  // Hardware death at `at`: clears alive, stamps failed_at and counts the
  // class failure.
  void MarkFailedAt(uint32_t slot, SimTime at);

  // Retires a working unit (proactive refresh): clears alive without
  // counting a failure.
  void RetireAt(uint32_t slot);

  // Counts a unit replacement against the slot's class.
  void CountReplacementAt(uint32_t slot);

  // Starts loading the lines a lifecycle transition at `slot` touches
  // (alive, unit generation, deployed_at, failed_at, class), so a caller
  // that knows its next transitions can overlap their cache misses.
  void PrefetchLifecycle(uint32_t slot) const {
    __builtin_prefetch(alive_.data() + slot, 1);
    __builtin_prefetch(unit_gen_.data() + slot, 1);
    __builtin_prefetch(deployed_at_.data() + slot, 1);
    __builtin_prefetch(failed_at_.data() + slot, 1);
    __builtin_prefetch(class_.data() + slot);
  }
  // Starts loading the slot's deadline line, for a walk that reads it.
  void PrefetchDeadline(uint32_t slot) const { __builtin_prefetch(deadline_.data() + slot, 1); }

  // --- Coverage -----------------------------------------------------------

  // Publishes the count of sites inside at least one operational gateway's
  // range on the fleet.covered_sites gauge. The fleet keeps no per-site
  // coverage: the district model counts it per coverage cell
  // (district_model.h) and reports the total here.
  void SetCoveredSites(uint64_t sites) {
    covered_sites_ = sites;
    MetricSet(covered_gauge_, static_cast<double>(sites));
  }

  // --- Energy (edge fleets only; delegates to EnergyOps over the columns) --

  void SetEnergyStateAt(uint32_t slot, const EnergyStorage::State& state, SimTime last_advance) {
    energy_[slot].storage = state;
    energy_[slot].last_advance = last_advance;
  }
  const EnergyStorage::State& energy_state(uint32_t slot) const {
    return energy_[slot].storage;
  }
  SimTime energy_last_advance(uint32_t slot) const { return energy_[slot].last_advance; }
  double StorageSocAt(uint32_t slot) const { return EnergyStorage::Soc(energy_[slot].storage); }

  void EnergyAdvanceTo(uint32_t slot, SimTime now);
  bool EnergyTryTransmit(uint32_t slot, SimTime now);
  // Unconditional energy adjustment at `now` (advance first): positive
  // `joules` drains (floored at empty), negative credits (capped at the
  // current capacity). Used for receive costs outside the TX accounting —
  // class B beacon listens, CAD scans, and CAD refunds of pre-charged TX
  // energy.
  void EnergyConsumeAt(uint32_t slot, SimTime now, double joules);
  SimTime EstimateNextAffordableAt(uint32_t slot, SimTime now, double joules) const;

  // Sampled-engine bulk advance: analytically fast-forwards one slot's
  // energy column to `to` (EnergyOps::FastForwardTo), carrying the
  // expected outcome of the transmission attempts the slot's class
  // report_interval implies over the skipped span. A call with
  // to <= last_advance is a bit-identical no-op.
  FastForwardResult FastForwardEnergyAt(uint32_t slot, SimTime to);

  // --- Checkpoint (src/snapshot drivers) ----------------------------------

  // The mutable portion of one slot's columns: everything a checkpoint must
  // carry. Geometry (position, zone, class, harvester) is rebuilt from the
  // config by the restoring driver, and failure_event ids by the engine
  // that re-arms the failures, so neither appears here. `deadline_us` is
  // an alive slot's pending failure, the one place a checkpoint keeps it;
  // a dead slot saves 0. Doubles round-trip as raw bit
  // patterns so restored energy arithmetic continues bit-identically.
  // `covering` is not a fleet column: SaveSlotState leaves it 0 and
  // RestoreSlotState ignores it. The district engines write the count of
  // operational gateways covering the site there and check it on restore.
  // A lifecycle-only slot has no energy columns: SaveSlotState writes what
  // an untouched edge slot of its class holds (the class's initial storage
  // state, zero last advance and tx counts), and RestoreSlotState ignores
  // those fields.
  struct SlotState {
    uint8_t alive = 0;
    uint32_t handle_generation = 1;
    uint32_t unit_generation = 0;
    int64_t deployed_at_us = 0;
    int64_t failed_at_us = 0;
    int64_t deadline_us = 0;
    uint32_t covering = 0;
    double charge_j = 0.0;
    double capacity_now_j = 0.0;
    int64_t energy_last_update_us = 0;
    int64_t energy_last_advance_us = 0;
    uint64_t tx_granted = 0;
    uint64_t tx_denied = 0;
  };

  SlotState SaveSlotState(uint32_t slot) const;
  // Raw column overwrite; does not touch aggregates or gauges — call
  // RecountAggregates() once after restoring every slot.
  void RestoreSlotState(uint32_t slot, const SlotState& state);

  // Recomputes alive_count_ from the column and republishes the
  // fleet.alive_devices gauge (when enabled).
  void RecountAggregates();

  // Restores a class's internal replacement tally. The associated metric
  // counters are restored separately by the metrics overlay — this touches
  // only the tally behind class_replacements().
  void RestoreClassReplacements(uint32_t cls, uint64_t count) {
    classes_[cls].replacement_count = count;
  }

  // --- Observability ------------------------------------------------------

  // Binds fleet-level gauges (fleet.alive_devices, fleet.covered_sites) and
  // per-class replacement counters (fleet.replacements{class=...}) in the
  // attached MetricsRegistry. Opt-in so runs pinned to golden metric sets
  // are unaffected unless they ask.
  void EnableFleetMetrics();

  // Bytes of fleet column storage currently allocated, and per allocated
  // slot. Class records and specs are excluded (amortized across the fleet).
  size_t MemoryBytes() const;
  double BytesPerDevice() const {
    return capacity() > 0 ? static_cast<double>(MemoryBytes()) / capacity() : 0.0;
  }

  Simulation& sim() { return sim_; }

 private:
  struct ClassRecord {
    DeviceClassSpec spec;
    // Shared per-tech instruments, bound at intern time in the same order
    // the per-device constructors used to bind them.
    Counter* failures = nullptr;
    Counter* replacements = nullptr;
    EnergyMetricHooks energy;
    // Fleet-level per-class replacement counter (EnableFleetMetrics).
    Counter* fleet_replacements = nullptr;
    uint64_t replacement_count = 0;
  };

  struct EnergyColumn {
    EnergyStorage::State storage;
    SimTime last_advance;
  };

  // Grows (or recycles) a slot's lifecycle core columns.
  DeviceHandle AddCore(uint32_t cls, uint32_t zone);
  bool has_edge() const { return !energy_.empty(); }

  void BumpGeneration(uint32_t slot) {
    if (++handle_gen_[slot] == 0) {
      handle_gen_[slot] = 1;  // Skip 0 on wrap: handles must never be invalid.
    }
  }
  void BindFleetMetricsFor(ClassRecord& record);

  Simulation& sim_;

  std::vector<ClassRecord> classes_;
  std::unordered_map<std::string, uint32_t> class_index_;  // InternKey -> id.

  // Parallel per-slot columns: the lifecycle core, sized for every slot.
  std::vector<uint32_t> handle_gen_;  // 1-based handle generations.
  std::vector<uint32_t> class_;
  std::vector<uint32_t> zone_;
  std::vector<uint8_t> alive_;
  std::vector<uint32_t> unit_gen_;
  std::vector<SimTime> deployed_at_;
  std::vector<SimTime> failed_at_;
  std::vector<SimTime> deadline_;
  std::vector<EventId> failure_event_;
  // The edge group: as long as the core on an edge fleet, empty otherwise.
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<EnergyColumn> energy_;
  std::vector<EnergyCounters> tx_;
  std::vector<HarvesterModel> harvester_;

  std::vector<uint32_t> free_;  // LIFO: most recently released first.

  uint64_t alive_count_ = 0;
  uint64_t covered_sites_ = 0;  // Last SetCoveredSites value.

  bool fleet_metrics_enabled_ = false;
  Gauge* alive_gauge_ = nullptr;
  Gauge* covered_gauge_ = nullptr;
};

// Read-only energy view over one fleet slot, shaped like the old
// EdgeDevice::energy() surface (storage().soc(), load(), counters) so
// facade callers keep compiling.
class FleetEnergyView {
 public:
  FleetEnergyView(const DeviceFleet& fleet, uint32_t slot) : fleet_(fleet), slot_(slot) {}

  class StorageView {
   public:
    StorageView(const EnergyStorage::State& state, const EnergyStorage::Params& params)
        : state_(state), params_(params) {}
    double charge_j() const { return state_.charge_j; }
    double capacity_now_j() const { return state_.capacity_now_j; }
    double soc() const { return EnergyStorage::Soc(state_); }
    SimTime last_update() const { return state_.last_update; }
    const EnergyStorage::Params& params() const { return params_; }

   private:
    const EnergyStorage::State& state_;
    const EnergyStorage::Params& params_;
  };

  StorageView storage() const {
    return StorageView(fleet_.energy_state(slot_),
                       fleet_.class_spec(fleet_.device_class(slot_)).storage);
  }
  const LoadProfile& load() const {
    return fleet_.class_spec(fleet_.device_class(slot_)).load;
  }
  const HarvesterModel& harvester() const { return fleet_.harvester(slot_); }
  uint64_t tx_granted() const { return fleet_.tx_granted(slot_); }
  uint64_t tx_denied() const { return fleet_.tx_denied(slot_); }

 private:
  const DeviceFleet& fleet_;
  uint32_t slot_;
};

}  // namespace centsim

#endif  // SRC_CORE_FLEET_H_
