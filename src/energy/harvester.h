// Energy-harvester models ("Ambient Batteries", paper §1 and refs [20, 21]).
//
// A harvester exposes its instantaneous output power as a deterministic
// function of simulated time (environmental cycles plus long-term
// degradation). Deterministic profiles let the energy manager integrate
// harvested energy analytically between events instead of ticking.
//
// `HarvesterModel` is the one representation: a tagged union of the
// per-kind parameter structs below. EnergyOver is the closed-form integral
// for every kind.

#ifndef SRC_ENERGY_HARVESTER_H_
#define SRC_ENERGY_HARVESTER_H_

#include <cstdint>
#include <type_traits>

#include "src/sim/random.h"
#include "src/sim/time.h"

namespace centsim {

// Indoor/outdoor photovoltaic: diurnal half-sine, seasonal modulation,
// weather attenuation (slow random walk via hashed day index so the profile
// stays a pure function of time), and panel degradation per year.
struct SolarHarvester {
  struct Params {
    double peak_power_w = 0.010;       // 10 mW peak for a cm-scale cell.
    double seasonal_swing = 0.35;      // +-35% seasonal amplitude.
    double weather_min = 0.25;         // Worst-day cloud attenuation factor.
    double degradation_per_year = 0.005;  // 0.5%/yr output fade.
    double latitude_phase = 0.0;       // Season phase offset (radians).
    uint64_t weather_seed = 1;         // Per-site weather sequence.
  };
};

// Rebar-corrosion cathodic "ambient battery" (paper §1; ref [21]): a
// near-constant few-hundred-µW source whose output decays on the timescale
// of the host structure's service life. Powers a bridge sensor for
// literally as long as the structure lasts.
struct CorrosionHarvester {
  struct Params {
    double initial_power_w = 300e-6;   // 300 uW from a galvanic couple.
    SimTime structure_life = SimTime::Years(50);  // Host bridge service life.
    // Output at end of structure life as a fraction of initial (the anode
    // depletes roughly linearly in delivered charge).
    double end_of_life_fraction = 0.4;
  };
};

// Diurnal thermal-gradient harvester (TEG across a surface/ambient delta).
struct ThermalHarvester {
  struct Params {
    double peak_power_w = 1e-3;
    double baseline_fraction = 0.1;  // Fraction of peak available at night.
  };
};

// Traffic-induced vibration harvester: weekday/weekend and rush-hour
// structure, suitable for roadway-embedded nodes.
struct VibrationHarvester {
  struct Params {
    double peak_power_w = 2e-3;
    double night_fraction = 0.05;
    double weekend_factor = 0.6;
  };
};

// Constant-output source (lab supply, test rigs, "energy is not the
// bottleneck" scenarios). EnergyOver is exact: power * span.
struct ConstantHarvestParams {
  double power_w = 0.0;
};

// Closed-form energy integrals for the periodic harvester kinds, exposed as
// free functions so HarvesterModel::EnergyOver and the parity tests share
// one implementation. Each walks the days overlapping [from, to] and
// integrates that day's smooth pieces exactly:
//
//  * solar — per-day daylight window of
//      e^{-lambda*s} * sin(a*s + alpha) * (1 + A*sin(b*s + beta)),
//    via product-to-sum and the standard exponential-times-sinusoid
//    antiderivatives (weather is constant within a day by construction),
//    each day's piece clamped at zero against cancellation;
//  * thermal — baseline plus the positive half-sine lobe, -cos/a;
//  * vibration — plateau plus two Gaussian rush-hour humps, via erf. The
//    min(traffic, 1) clamp in the power model only binds where the opposite
//    hump's tail (~e^{-43}) pushes the peak over 1, a relative error of
//    ~1e-19 that the closed form ignores.
double SolarEnergyOverAnalytic(const SolarHarvester::Params& params, SimTime from, SimTime to);
double ThermalEnergyOverAnalytic(const ThermalHarvester::Params& params, SimTime from,
                                 SimTime to);
double VibrationEnergyOverAnalytic(const VibrationHarvester::Params& params, SimTime from,
                                   SimTime to);

// Tagged-union harvester: one of the parameter structs above plus a kind
// tag, dispatched by switch. No heap allocation, no vtable, trivially
// copyable and 56 bytes, so fleets store one per device in a flat column
// (see src/core/fleet.h).
class HarvesterModel {
 public:
  enum class Kind : uint8_t {
    kConstant,
    kSolar,
    kCorrosion,
    kThermal,
    kVibration,
  };

  // Defaults to a dead constant source (0 W).
  HarvesterModel() : kind_(Kind::kConstant) { params_.constant = ConstantHarvestParams{}; }

  static HarvesterModel Constant(double power_w);
  static HarvesterModel Solar(const SolarHarvester::Params& params);
  static HarvesterModel Corrosion(const CorrosionHarvester::Params& params);
  static HarvesterModel Thermal(const ThermalHarvester::Params& params);
  static HarvesterModel Vibration(const VibrationHarvester::Params& params);

  // Instantaneous output power in watts at simulated time `t`.
  double PowerAt(SimTime t) const;
  // Energy in joules harvested over [from, to]: the exact integral of
  // PowerAt. Closed form for every kind, over a window of any length at a
  // fixed cost per day: the detailed engines' per-event advance
  // (EnergyOps::AdvanceTo) and the sampled engines' multi-year
  // fast-forward (EnergyOps::FastForwardTo) both bank this value.
  double EnergyOver(SimTime from, SimTime to) const;
  // Long-run average power (W) over the given window; used for sizing.
  double MeanPower(SimTime from, SimTime to) const;

  Kind kind() const { return kind_; }
  // "constant", "solar", "rebar-corrosion", "thermal" or "vibration".
  const char* name() const;

 private:
  union ParamsUnion {
    ConstantHarvestParams constant;
    SolarHarvester::Params solar;
    CorrosionHarvester::Params corrosion;
    ThermalHarvester::Params thermal;
    VibrationHarvester::Params vibration;
    ParamsUnion() : constant{} {}  // Members carry default initializers.
  };

  Kind kind_;
  ParamsUnion params_;
};

static_assert(std::is_trivially_copyable_v<HarvesterModel>,
              "fleet columns memcpy HarvesterModel on growth");

}  // namespace centsim

#endif  // SRC_ENERGY_HARVESTER_H_
