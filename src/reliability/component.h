// Component-level reliability catalog.
//
// An edge device, gateway, or backhaul element is modeled as a series system
// of components: it works only while every component works. The catalog
// encodes the paper's §1 claim that batteries, electrolytic capacitors, and
// PCB substrates cap conventional device lifetime around 10-15 years, while
// the design choices of energy-harvesting hardware (no battery, ceramic
// instead of electrolytic capacitors, derated low-power parts) remove the
// dominant wear-out terms.

#ifndef SRC_RELIABILITY_COMPONENT_H_
#define SRC_RELIABILITY_COMPONENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/reliability/hazard.h"

namespace centsim {

class ThreadPool;

enum class ComponentClass : uint8_t {
  kBattery,           // Primary/secondary chemistry; calendar-life bound.
  kElectrolyticCap,   // Electrolyte dry-out wear-out.
  kCeramicCap,        // Effectively indefinite in derated use.
  kPcbSubstrate,      // Laminate degradation, via fatigue (IPC-6012 class).
  kFlashMemory,       // Retention/endurance limited.
  kMicrocontroller,   // Silicon wear-out far out; random failures dominate.
  kRadioIc,
  kSolarCell,         // Output degrades; catastrophic failure rare.
  kSupercap,          // Mild wear-out, far beyond battery calendar life.
  kConnectorSolder,   // Thermal-cycling fatigue.
  kEmbeddedComputer,  // Raspberry-Pi-class gateway computer.
  kPowerSupply,       // AC adapter: electrolytics dominate.
  kSdCard,            // Gateway storage; notorious early failure.
};

const char* ComponentClassName(ComponentClass c);

struct ComponentSpec {
  ComponentClass cls;
  std::string name;
  std::shared_ptr<const HazardModel> hazard;
};

// Factory functions for the catalog entries. Lifetime parameters follow the
// sources cited in the paper (IPC-6012E for PCBs, Jang et al. for
// post-collapse hardware longevity) plus standard reliability handbooks.
ComponentSpec MakeBattery(SimTime calendar_life_mean = SimTime::Years(15));
ComponentSpec MakeElectrolyticCap(SimTime rated_life = SimTime::Years(20));
ComponentSpec MakeCeramicCap();
ComponentSpec MakePcbSubstrate(SimTime service_life = SimTime::Years(40));
ComponentSpec MakeFlashMemory(SimTime retention = SimTime::Years(20));
ComponentSpec MakeMicrocontroller();
ComponentSpec MakeRadioIc();
ComponentSpec MakeSolarCell();
ComponentSpec MakeSupercap(SimTime rated_life = SimTime::Years(30));
ComponentSpec MakeConnectorSolder(SimTime fatigue_life = SimTime::Years(25));
ComponentSpec MakeEmbeddedComputer(SimTime mttf = SimTime::Years(8));
ComponentSpec MakePowerSupply(SimTime mttf = SimTime::Years(7));
ComponentSpec MakeSdCard(SimTime mttf = SimTime::Years(4));

// A series system of components. The realized device life is the minimum of
// the component lives; the survival function is the product.
class SeriesSystem {
 public:
  SeriesSystem() = default;

  void Add(ComponentSpec spec) { components_.push_back(std::move(spec)); }
  size_t size() const { return components_.size(); }
  const std::vector<ComponentSpec>& components() const { return components_; }

  // Samples the system life and reports which component failed first.
  struct LifeDraw {
    SimTime life;
    size_t failing_component;  // Index into components(); SIZE_MAX if none.
  };
  LifeDraw SampleLife(RandomStream& rng) const;

  // Sets lives[i] to SampleLife(root.Derive(keys[i])).life for every i
  // (the spans have equal size). A life is a pure function of its key, so
  // the batch equals the one-at-a-time loop bit for bit however it is
  // split: given a pool and more than kParallelLifeGrain keys, contiguous
  // chunks of that many keys run on the pool's workers and on the caller
  // (ParallelFor), which returns when all are done. The pool must have no other work in
  // flight.
  static constexpr size_t kParallelLifeGrain = 1024;
  void SampleLives(const RandomStream& root, std::span<const uint64_t> keys,
                   std::span<SimTime> lives, ThreadPool* pool) const;

  double Survival(SimTime t) const;
  // System MTTF by numerical integration of the product survival.
  SimTime Mttf(SimTime horizon = SimTime::Years(200)) const;

  // Bills of materials for the device classes the paper contrasts.
  // Battery-powered conventional sensor node (10-15 y mean life, per §1).
  static SeriesSystem BatteryPoweredNode();
  // Energy-harvesting node: no battery, ceramic caps, supercap storage.
  static SeriesSystem EnergyHarvestingNode();
  // Raspberry-Pi-class 802.15.4 gateway with PSU and SD card.
  static SeriesSystem RaspberryPiGateway();
  // Hardened Helium hotspot (consumer hardware, wall powered).
  static SeriesSystem HeliumHotspot();

 private:
  std::vector<ComponentSpec> components_;
};

}  // namespace centsim

#endif  // SRC_RELIABILITY_COMPONENT_H_
