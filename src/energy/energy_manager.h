// Energy-neutral operation manager for a transmit-only sensor node.
//
// Couples a HarvesterModel to an EnergyStorage and answers two questions:
//  1. Planning: what reporting interval is sustainable year-round?
//  2. Runtime: at simulated time t, is there energy for one transmission
//     (sleep overheads included) — and if not, when will there be?
//
// The runtime side is event-driven: between calls, harvested energy is
// integrated analytically over the elapsed interval, so a 50-year device
// costs one call per transmission attempt.
//
// All transition math lives in the `EnergyOps` statics, which operate on
// (shared params, per-device state) pairs. EnergyManager is the
// one-device convenience wrapper; DeviceFleet (src/core/fleet.h) applies
// the same statics to its struct-of-arrays columns, so both paths compute
// bit-identical doubles.

#ifndef SRC_ENERGY_ENERGY_MANAGER_H_
#define SRC_ENERGY_ENERGY_MANAGER_H_

#include <cstdint>
#include <optional>

#include "src/energy/harvester.h"
#include "src/energy/storage.h"
#include "src/sim/metrics.h"
#include "src/sim/time.h"

namespace centsim {

// Static electrical profile of the node.
struct LoadProfile {
  double sleep_power_w = 2e-6;     // 2 uW sleep floor (RTC + leakage).
  double tx_energy_j = 0.015;      // Energy per transmission event
                                   // (wakeup + sense + radio on-air).
  double sense_energy_j = 0.002;   // Sensor sampling without transmit.
  double brownout_reserve_j = 0.05;  // Keep-alive floor below which the node
                                     // refuses to fire the radio.
};

// Per-device grant/deny tallies; 16 bytes, fleet-column friendly.
struct EnergyCounters {
  uint64_t tx_granted = 0;
  uint64_t tx_denied = 0;
};

// Shared (typically per-class) instruments; any pointer may be null.
struct EnergyMetricHooks {
  Counter* granted = nullptr;
  Counter* denied = nullptr;
  HistogramMetric* harvest_j = nullptr;
};

// What one fast-forwarded span did to a device, for window metrics and the
// sampled drivers' expected-traffic accounting.
struct FastForwardResult {
  double harvested_j = 0.0;    // Energy banked over the span (pre-efficiency).
  uint64_t attempts = 0;       // Transmission attempts the span covered.
  uint64_t granted = 0;        // Expected grants out of those attempts.
  uint64_t denied = 0;         // attempts - granted.
};

// Stateless transition functions over (shared params, per-device state).
struct EnergyOps {
  // Advances the energy state to `now` (harvest in, sleep + leakage out).
  static void AdvanceTo(const HarvesterModel& harvester, const EnergyStorage::Params& storage,
                        const LoadProfile& load, EnergyStorage::State& state,
                        SimTime& last_advance, const EnergyMetricHooks& hooks, SimTime now);

  // Attempts one transmission at `now`. Advances state first. Returns true
  // and deducts energy if affordable; false otherwise (energy untouched
  // apart from the advance).
  static bool TryTransmit(const HarvesterModel& harvester, const EnergyStorage::Params& storage,
                          const LoadProfile& load, EnergyStorage::State& state,
                          SimTime& last_advance, EnergyCounters& counters,
                          const EnergyMetricHooks& hooks, SimTime now);

  // Bulk advance for the sampled engine: one call covers [last_advance, to)
  // — the harvest integral AdvanceTo also banks (the closed-form
  // HarvesterModel::EnergyOver), one leakage/aging step, one sleep draw,
  // and the expected outcome of the `n = floor(span / tx_interval)`
  // transmission attempts the skipped span would have carried (grants
  // limited by the span's energy throughput — opening charge plus
  // efficiency-discounted harvest minus the sleep floor — above the
  // brownout reserve; a non-positive tx_interval means no transmit duty
  // cycle). Counters and hooks are updated exactly like n detailed
  // TryTransmit calls would in expectation. With no duty cycle, over a span
  // where the store neither fills nor empties, it leaves the same charge_j
  // as AdvanceTo, bit for bit. A call with to <= last_advance is a
  // bit-identical no-op — the zero-length fast-forward contract the parity
  // tests pin.
  static FastForwardResult FastForwardTo(const HarvesterModel& harvester,
                                         const EnergyStorage::Params& storage,
                                         const LoadProfile& load, EnergyStorage::State& state,
                                         SimTime& last_advance, EnergyCounters& counters,
                                         const EnergyMetricHooks& hooks, SimTime to,
                                         SimTime tx_interval);

  // Estimate of when the storage will next hold `joules` above the reserve,
  // assuming average harvest conditions. Never less than `now`.
  static SimTime EstimateNextAffordable(const HarvesterModel& harvester,
                                        const EnergyStorage::Params& storage,
                                        const LoadProfile& load,
                                        const EnergyStorage::State& state, SimTime now,
                                        double joules);

  // Largest sustainable transmissions-per-day given mean harvest over a
  // representative year minus the sleep floor. Returns 0 if the harvester
  // cannot even cover sleep.
  static double SustainableTxPerDay(const HarvesterModel& harvester,
                                    const EnergyStorage::Params& storage,
                                    const LoadProfile& load);
};

class EnergyManager {
 public:
  EnergyManager(HarvesterModel harvester, EnergyStorage storage, LoadProfile load);

  // --- Planning -----------------------------------------------------------

  double SustainableTxPerDay() const {
    return EnergyOps::SustainableTxPerDay(harvester_, storage_.params(), load_);
  }

  // The corresponding reporting interval, if any.
  std::optional<SimTime> SustainableInterval() const;

  // --- Runtime ------------------------------------------------------------

  void AdvanceTo(SimTime now);
  bool TryTransmit(SimTime now);

  // Attaches shared instruments (typically per-tech): grant/deny counters
  // and a per-advance harvested-joules histogram. Any may be null.
  void BindMetrics(Counter* granted, Counter* denied, HistogramMetric* harvest_j);

  SimTime EstimateNextAffordable(SimTime now, double joules) const {
    return EnergyOps::EstimateNextAffordable(harvester_, storage_.params(), load_,
                                             storage_.state(), now, joules);
  }

  const EnergyStorage& storage() const { return storage_; }
  const HarvesterModel& harvester() const { return harvester_; }
  const LoadProfile& load() const { return load_; }
  SimTime last_advance() const { return last_advance_; }
  uint64_t tx_granted() const { return counters_.tx_granted; }
  uint64_t tx_denied() const { return counters_.tx_denied; }

 private:
  HarvesterModel harvester_;
  EnergyStorage storage_;
  LoadProfile load_;
  SimTime last_advance_;
  EnergyCounters counters_;
  EnergyMetricHooks hooks_;
};

}  // namespace centsim

#endif  // SRC_ENERGY_ENERGY_MANAGER_H_
