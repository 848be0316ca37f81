#include "src/reliability/component.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/sim/thread_pool.h"

namespace centsim {
namespace {

std::shared_ptr<const HazardModel> Weib(double shape, SimTime scale) {
  return std::make_shared<WeibullHazard>(shape, scale);
}

std::shared_ptr<const HazardModel> Expo(SimTime mttf) {
  return std::make_shared<ExponentialHazard>(mttf);
}

}  // namespace

const char* ComponentClassName(ComponentClass c) {
  switch (c) {
    case ComponentClass::kBattery:
      return "battery";
    case ComponentClass::kElectrolyticCap:
      return "electrolytic-cap";
    case ComponentClass::kCeramicCap:
      return "ceramic-cap";
    case ComponentClass::kPcbSubstrate:
      return "pcb-substrate";
    case ComponentClass::kFlashMemory:
      return "flash";
    case ComponentClass::kMicrocontroller:
      return "mcu";
    case ComponentClass::kRadioIc:
      return "radio-ic";
    case ComponentClass::kSolarCell:
      return "solar-cell";
    case ComponentClass::kSupercap:
      return "supercap";
    case ComponentClass::kConnectorSolder:
      return "connector/solder";
    case ComponentClass::kEmbeddedComputer:
      return "embedded-computer";
    case ComponentClass::kPowerSupply:
      return "power-supply";
    case ComponentClass::kSdCard:
      return "sd-card";
  }
  return "?";
}

ComponentSpec MakeBattery(SimTime calendar_life_mean) {
  // Calendar aging dominates at low duty cycle; tight wear-out (k=3).
  // Mean of Weibull(k, eta) = eta * Gamma(1 + 1/k); invert for eta.
  const double eta = calendar_life_mean.ToSeconds() / std::tgamma(1.0 + 1.0 / 3.0);
  return {ComponentClass::kBattery, "li-primary-battery", Weib(3.0, SimTime::Seconds(eta))};
}

ComponentSpec MakeElectrolyticCap(SimTime rated_life) {
  // Electrolyte dry-out: steep wear-out around the rated life.
  return {ComponentClass::kElectrolyticCap, "aluminum-electrolytic", Weib(5.0, rated_life)};
}

ComponentSpec MakeCeramicCap() {
  // Derated C0G/X7R: random failures only, very long MTTF.
  return {ComponentClass::kCeramicCap, "mlcc", Expo(SimTime::Years(400))};
}

ComponentSpec MakePcbSubstrate(SimTime service_life) {
  // IPC-6012E class 3 laminates: slow wear-out (CAF growth, via fatigue).
  return {ComponentClass::kPcbSubstrate, "fr4-substrate", Weib(2.5, service_life)};
}

ComponentSpec MakeFlashMemory(SimTime retention) {
  return {ComponentClass::kFlashMemory, "nor-flash", Weib(3.0, retention)};
}

ComponentSpec MakeMicrocontroller() {
  return {ComponentClass::kMicrocontroller, "cortex-m-mcu", Expo(SimTime::Years(150))};
}

ComponentSpec MakeRadioIc() {
  return {ComponentClass::kRadioIc, "radio-ic", Expo(SimTime::Years(120))};
}

ComponentSpec MakeSolarCell() {
  // Output degradation is modeled in the energy module; catastrophic
  // failure (cracking, delamination) is a mild wear-out here.
  return {ComponentClass::kSolarCell, "solar-cell", Weib(2.0, SimTime::Years(60))};
}

ComponentSpec MakeSupercap(SimTime rated_life) {
  return {ComponentClass::kSupercap, "supercap", Weib(3.0, rated_life)};
}

ComponentSpec MakeConnectorSolder(SimTime fatigue_life) {
  return {ComponentClass::kConnectorSolder, "solder-joints", Weib(2.0, fatigue_life)};
}

ComponentSpec MakeEmbeddedComputer(SimTime mttf) {
  // RPi-class board: mix of early failures and random faults.
  BathtubHazard::Params p;
  p.infant_shape = 0.6;
  p.infant_scale = SimTime::Years(80);
  p.random_mttf = mttf * 2.0;
  p.wearout_shape = 3.0;
  p.wearout_scale = mttf * 1.5;
  return {ComponentClass::kEmbeddedComputer, "rpi-board", std::make_shared<BathtubHazard>(p)};
}

ComponentSpec MakePowerSupply(SimTime mttf) {
  // Wall-wart PSU: electrolytics dominate -> steepish wear-out.
  return {ComponentClass::kPowerSupply, "ac-psu", Weib(3.0, mttf * 1.12)};
}

ComponentSpec MakeSdCard(SimTime mttf) {
  // Infant mortality plus steady wear: shallow Weibull.
  return {ComponentClass::kSdCard, "sd-card", Weib(1.2, mttf)};
}

SeriesSystem::LifeDraw SeriesSystem::SampleLife(RandomStream& rng) const {
  LifeDraw draw{SimTime::Max(), SIZE_MAX};
  for (size_t i = 0; i < components_.size(); ++i) {
    const SimTime t = components_[i].hazard->SampleLife(rng);
    if (t < draw.life) {
      draw.life = t;
      draw.failing_component = i;
    }
  }
  return draw;
}

void SeriesSystem::SampleLives(const RandomStream& root, std::span<const uint64_t> keys,
                               std::span<SimTime> lives, ThreadPool* pool) const {
  assert(keys.size() == lives.size());
  const auto draw = [this, &root, keys, lives](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      RandomStream rng = root.Derive(keys[i]);
      lives[i] = SampleLife(rng).life;
    }
  };
  // One grain-sized chunk per call: a batch below the grain is one chunk,
  // drawn on the caller.
  const size_t n = keys.size();
  ParallelFor(pool, (n + kParallelLifeGrain - 1) / kParallelLifeGrain,
              [&draw, n](size_t chunk) {
                const size_t begin = chunk * kParallelLifeGrain;
                draw(begin, std::min(n, begin + kParallelLifeGrain));
              });
}

double SeriesSystem::Survival(SimTime t) const {
  double s = 1.0;
  for (const auto& c : components_) {
    s *= c.hazard->Survival(t);
  }
  return s;
}

SimTime SeriesSystem::Mttf(SimTime horizon) const {
  const int steps = 4096;
  const double h = horizon.ToSeconds();
  const double dt = h / steps;
  double acc = 0.0;
  double prev = 1.0;
  for (int i = 1; i <= steps; ++i) {
    const double s = Survival(SimTime::Seconds(dt * i));
    acc += 0.5 * (prev + s) * dt;
    prev = s;
  }
  return SimTime::Seconds(acc);
}

SeriesSystem SeriesSystem::BatteryPoweredNode() {
  SeriesSystem sys;
  sys.Add(MakeBattery());
  sys.Add(MakeElectrolyticCap());
  sys.Add(MakePcbSubstrate());
  sys.Add(MakeFlashMemory());
  sys.Add(MakeMicrocontroller());
  sys.Add(MakeRadioIc());
  sys.Add(MakeConnectorSolder());
  return sys;
}

SeriesSystem SeriesSystem::EnergyHarvestingNode() {
  SeriesSystem sys;
  // No battery; ceramic caps; supercap storage; same digital parts. The
  // PCB is conformally coated and the node runs cold, so substrate and
  // solder fatigue lives stretch.
  sys.Add(MakeCeramicCap());
  sys.Add(MakeSupercap(SimTime::Years(40)));
  sys.Add(MakePcbSubstrate(SimTime::Years(60)));
  sys.Add(MakeFlashMemory(SimTime::Years(30)));
  sys.Add(MakeMicrocontroller());
  sys.Add(MakeRadioIc());
  sys.Add(MakeConnectorSolder(SimTime::Years(40)));
  sys.Add(MakeSolarCell());
  return sys;
}

SeriesSystem SeriesSystem::RaspberryPiGateway() {
  SeriesSystem sys;
  sys.Add(MakeEmbeddedComputer());
  sys.Add(MakePowerSupply());
  sys.Add(MakeSdCard());
  sys.Add(MakeRadioIc());
  return sys;
}

SeriesSystem SeriesSystem::HeliumHotspot() {
  SeriesSystem sys;
  sys.Add(MakeEmbeddedComputer(SimTime::Years(6)));
  sys.Add(MakePowerSupply(SimTime::Years(6)));
  sys.Add(MakeRadioIc());
  return sys;
}

}  // namespace centsim
