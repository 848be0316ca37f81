// The district scenario's model (see district.h), written once and shared
// by its three time-advance engines: serial (district.cc), sampled
// (district_sampled.cc) and sharded (district_shard.cc).
//
// DistrictModel owns what the serial and sampled engines share: the fleet
// and coverage built from the geometry, the state transitions (each at an
// explicit time), the service-availability accumulator, the `district`
// snapshot chunks and report assembly. An engine keeps only how time
// advances: which events it arms where, and how it keys its lifetime
// draws. The sharded engine keeps its own lanes and integer accumulators
// and takes the geometry, the structural digest and the transition
// categories from here.

#ifndef SRC_CORE_DISTRICT_MODEL_H_
#define SRC_CORE_DISTRICT_MODEL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/city/deployment.h"
#include "src/core/district.h"
#include "src/core/fleet.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/simulation.h"
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

// Geometry every engine rebuilds from the config's structural fields: the
// deployment plan, the gateway grid planned from the radio range, and the
// gateway -> covered-sites map.
struct DistrictGeometry {
  explicit DistrictGeometry(const DistrictConfig& config);

  // Fraction of sites inside at least one gateway cell.
  double InitialCoverage() const;

  DeploymentPlan plan;
  std::vector<Site> gateway_sites;
  CoverageCsr coverage;
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

class DistrictModel {
 public:
  DistrictModel(Simulation& sim, const DistrictConfig& config, DistrictReport& report);
  DistrictModel(const DistrictModel&) = delete;
  DistrictModel& operator=(const DistrictModel&) = delete;

  DistrictReport& report() { return report_; }
  const DeviceFleet& fleet() const { return fleet_; }
  const SeriesSystem& device_bom() const { return fleet_.class_spec(cls_).hardware; }
  const SeriesSystem& gateway_bom() const { return gateway_bom_; }
  // The run's RNG root (re-keyed by a branch salt on restore).
  const RandomStream& rng() const { return rng_; }
  uint32_t gateway_count() const { return static_cast<uint32_t>(gateway_up_.size()); }
  bool gateway_up(uint32_t g) const { return gateway_up_[g] != 0; }
  double alive_site_seconds() const { return alive_site_seconds_; }
  double service_site_seconds() const { return service_site_seconds_; }

  // --- Transitions at an explicit time ----------------------------------
  // The engine draws and arms each successor (device failure, gateway
  // repair or failure) itself.

  // Powers the site's unit up (a no-op on the columns if it is alive).
  void DeployAt(uint32_t d, SimTime at) {
    AccumulateTo(at);
    if (!fleet_.alive(d)) {
      fleet_.DeployAt(d, at);
      if (InService(d)) {
        ++service_count_;
      }
    }
  }

  void DeviceFailAt(uint32_t d, SimTime at) {
    AccumulateTo(at);
    if (InService(d)) {
      --service_count_;
    }
    fleet_.MarkFailedAt(d, at);
    ++report_.device_failures;
  }

  // A batch project reaches `zone`: every dead site is counted as a
  // replacement and redeployed by `engine.DeployDeviceAt(d, at)`, the
  // engine's deploy-and-arm.
  template <typename Engine>
  void ZoneVisitAt(uint32_t zone, SimTime at, Engine& engine) {
    Record(kDistrictVisit, at, zone);
    for (uint32_t d : zone_sites_[zone]) {
      if (!fleet_.alive(d)) {
        ++report_.device_replacements;
        engine.DeployDeviceAt(d, at);
      }
    }
  }

  void GatewayFailAt(uint32_t g, SimTime at);
  void GatewayRepairAt(uint32_t g, SimTime at);
  // Gateway up/down without the fail/repair accounting (initial bring-up).
  void SetGatewayAt(uint32_t g, bool up, SimTime at);

  // The transition accumulator: integrates alive and in-service site-time
  // (and its per-year split) up to `now`; called before every change.
  void AccumulateTo(SimTime now) {
    if (now <= last_change_) {
      return;
    }
    const double span = (now - last_change_).ToSeconds();
    alive_site_seconds_ += span * static_cast<double>(fleet_.alive_count());
    service_site_seconds_ += span * static_cast<double>(service_count_);
    double t0 = last_change_.ToSeconds();
    const double t1 = now.ToSeconds();
    const double year_s = SimTime::Years(1).ToSeconds();
    while (t0 < t1) {
      const uint32_t y = std::min<uint32_t>(years_ - 1, static_cast<uint32_t>(t0 / year_s));
      const double seg = std::min(t1, (y + 1) * year_s) - t0;
      yearly_service_seconds_[y] += seg * static_cast<double>(service_count_);
      t0 += seg;
    }
    last_change_ = now;
  }

  // --- Checkpoint/restore (`district` snapshots) -------------------------

  // Writes a `district` checkpoint at the quiescent `barrier` carrying the
  // engine's pending timers.
  void SaveCheckpoint(SimTime barrier, const std::vector<TimerRecord>& timers);

  // Restores from the plan's resume snapshot, if there is one: overlays the
  // model state, restores the clock, hands the pending timer records to
  // `rearm` (false + error refuses them) and applies the branch salt. Dies
  // on a bad snapshot. Returns false on a fresh start.
  using RearmFn = std::function<bool(const std::vector<TimerRecord>&, std::string* error)>;
  bool Resume(const RearmFn& rearm);

  // Closes the accumulators at the horizon and fills the report's results.
  void Finish();

 private:
  bool InService(uint32_t d) const { return fleet_.alive(d) && fleet_.covering(d) > 0; }
  bool Restore(const std::string& path, const RearmFn& rearm, std::string* error);
  void Record(const char* category, SimTime at, uint64_t arg) {
    if (config_.control.recorder != nullptr) {
      config_.control.recorder->Record(category, at, arg);
    }
  }

  Simulation& sim_;
  const DistrictConfig& config_;
  DistrictReport& report_;
  DeviceFleet fleet_;
  uint32_t cls_ = 0;
  RandomStream rng_;
  const SeriesSystem gateway_bom_;
  const uint32_t years_;

  CoverageCsr coverage_;
  std::vector<uint8_t> gateway_up_;
  std::vector<std::vector<uint32_t>> zone_sites_;  // Ascending site indices.

  uint64_t service_count_ = 0;  // Alive and covered.
  SimTime last_change_;
  double alive_site_seconds_ = 0.0;
  double service_site_seconds_ = 0.0;
  std::vector<double> yearly_service_seconds_;
};

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
