#include "src/energy/energy_manager.h"

#include <algorithm>
#include <cassert>

namespace centsim {

EnergyManager::EnergyManager(HarvesterModel harvester, EnergyStorage storage, LoadProfile load)
    : harvester_(harvester), storage_(std::move(storage)), load_(load) {}

void EnergyManager::BindMetrics(Counter* granted, Counter* denied, HistogramMetric* harvest_j) {
  hooks_.granted = granted;
  hooks_.denied = denied;
  hooks_.harvest_j = harvest_j;
}

std::optional<SimTime> EnergyManager::SustainableInterval() const {
  const double per_day = SustainableTxPerDay();
  if (per_day <= 0) {
    return std::nullopt;
  }
  return SimTime::Days(1.0 / per_day);
}

void EnergyManager::AdvanceTo(SimTime now) {
  EnergyOps::AdvanceTo(harvester_, storage_.params(), load_, storage_.mutable_state(),
                       last_advance_, hooks_, now);
}

bool EnergyManager::TryTransmit(SimTime now) {
  return EnergyOps::TryTransmit(harvester_, storage_.params(), load_, storage_.mutable_state(),
                                last_advance_, counters_, hooks_, now);
}

// --- EnergyOps -----------------------------------------------------------

void EnergyOps::AdvanceTo(const HarvesterModel& harvester, const EnergyStorage::Params& storage,
                          const LoadProfile& load, EnergyStorage::State& state,
                          SimTime& last_advance, const EnergyMetricHooks& hooks, SimTime now) {
  assert(now >= last_advance);
  if (now == last_advance) {
    return;
  }
  const double span_s = (now - last_advance).ToSeconds();
  // Harvest in (through charge efficiency, applied by StoreInto).
  const double harvested = harvester.EnergyOver(last_advance, now);
  MetricObserve(hooks.harvest_j, harvested);
  // Leakage/aging first (on the pre-harvest charge), then bank the new
  // energy, then pay the sleep floor. Ordering bias is negligible at the
  // event granularity we run (minutes to weeks).
  EnergyStorage::AdvanceState(storage, state, now);
  EnergyStorage::StoreInto(storage, state, harvested);
  EnergyStorage::DrawFrom(state, std::min(state.charge_j, load.sleep_power_w * span_s));
  last_advance = now;
}

bool EnergyOps::TryTransmit(const HarvesterModel& harvester, const EnergyStorage::Params& storage,
                            const LoadProfile& load, EnergyStorage::State& state,
                            SimTime& last_advance, EnergyCounters& counters,
                            const EnergyMetricHooks& hooks, SimTime now) {
  AdvanceTo(harvester, storage, load, state, last_advance, hooks, now);
  const double need = load.tx_energy_j + load.brownout_reserve_j;
  if (state.charge_j < need) {
    ++counters.tx_denied;
    MetricInc(hooks.denied);
    return false;
  }
  EnergyStorage::DrawFrom(state, load.tx_energy_j);
  ++counters.tx_granted;
  MetricInc(hooks.granted);
  return true;
}

FastForwardResult EnergyOps::FastForwardTo(const HarvesterModel& harvester,
                                           const EnergyStorage::Params& storage,
                                           const LoadProfile& load, EnergyStorage::State& state,
                                           SimTime& last_advance, EnergyCounters& counters,
                                           const EnergyMetricHooks& hooks, SimTime to,
                                           SimTime tx_interval) {
  FastForwardResult result;
  if (to <= last_advance) {
    return result;  // Zero-length fast-forward: bit-identical no-op.
  }
  const double span_s = (to - last_advance).ToSeconds();
  // Same transition order and harvest integral as AdvanceTo — aging on the
  // pre-harvest charge, bank the span's harvest, pay the sleep floor — so
  // with no transmit duty cycle and no clipping both land on the same charge.
  result.harvested_j = harvester.EnergyOver(last_advance, to);
  MetricObserve(hooks.harvest_j, result.harvested_j);
  EnergyStorage::AdvanceState(storage, state, to);
  last_advance = to;
  // Expected transmission outcome over the span. The detailed loop drains
  // the storage as it harvests, so what bounds grants is the span's energy
  // *throughput* (harvest after efficiency, minus the sleep floor, plus the
  // opening charge) — NOT the storage capacity, which only caps what is
  // left over at the end. Banking the whole integral through StoreInto
  // first would clip a year's harvest to one storage-full and then starve
  // every attempt, which no detailed trajectory does.
  const double banked = result.harvested_j * storage.charge_efficiency;
  const double sleep_j = load.sleep_power_w * span_s;
  double flow = state.charge_j + banked - sleep_j;
  if (tx_interval > SimTime() && load.tx_energy_j > 0.0) {
    result.attempts = static_cast<uint64_t>(span_s / tx_interval.ToSeconds());
    const double headroom = std::max(0.0, flow - load.brownout_reserve_j);
    const uint64_t affordable = static_cast<uint64_t>(headroom / load.tx_energy_j);
    result.granted = std::min(result.attempts, affordable);
    result.denied = result.attempts - result.granted;
    flow -= static_cast<double>(result.granted) * load.tx_energy_j;
    counters.tx_granted += result.granted;
    counters.tx_denied += result.denied;
    if (result.granted > 0) {
      MetricInc(hooks.granted, static_cast<double>(result.granted));
    }
    if (result.denied > 0) {
      MetricInc(hooks.denied, static_cast<double>(result.denied));
    }
  }
  state.charge_j = std::min(std::max(flow, 0.0), state.capacity_now_j);
  return result;
}

SimTime EnergyOps::EstimateNextAffordable(const HarvesterModel& harvester,
                                          const EnergyStorage::Params& storage,
                                          const LoadProfile& load,
                                          const EnergyStorage::State& state, SimTime now,
                                          double joules) {
  const double target = joules + load.brownout_reserve_j;
  const double deficit = target - state.charge_j;
  if (deficit <= 0) {
    return now;
  }
  const double mean_w =
      harvester.MeanPower(now, now + SimTime::Days(1)) * storage.charge_efficiency -
      load.sleep_power_w;
  if (mean_w <= 0) {
    // Night/dead calm: retry in a quarter day when conditions rotate.
    return now + SimTime::Hours(6);
  }
  return now + SimTime::Seconds(deficit / mean_w);
}

double EnergyOps::SustainableTxPerDay(const HarvesterModel& harvester,
                                      const EnergyStorage::Params& storage,
                                      const LoadProfile& load) {
  // Mean harvest over a representative year, discounted by charge
  // efficiency since everything round-trips through storage.
  const double mean_w =
      harvester.MeanPower(SimTime(), SimTime::Years(1)) * storage.charge_efficiency;
  const double surplus_w = mean_w - load.sleep_power_w;
  if (surplus_w <= 0) {
    return 0.0;
  }
  const double j_per_day = surplus_w * 86400.0;
  return j_per_day / load.tx_energy_j;
}

}  // namespace centsim
