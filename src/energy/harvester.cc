#include "src/energy/harvester.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace centsim {
namespace {

constexpr double kDaySeconds = 24.0 * 3600.0;
constexpr double kYearSeconds = 365.25 * kDaySeconds;

// Stateless hash -> [0,1) for reproducible "random" weather per day index.
double HashUnit(uint64_t x) {
  uint64_t s = x;
  return static_cast<double>(SplitMix64(s) >> 11) * 0x1.0p-53;
}

// --- Per-kind power/energy math behind HarvesterModel's switch.

double SolarWeatherFactor(const SolarHarvester::Params& params, int64_t day_index) {
  // Three-day smoothing of hashed daily draws gives plausible persistence.
  const double a = HashUnit(params.weather_seed * 0x9e3779b97f4a7c15ULL +
                            static_cast<uint64_t>(day_index));
  const double b = HashUnit(params.weather_seed * 0xbf58476d1ce4e5b9ULL +
                            static_cast<uint64_t>(day_index + 1));
  const double u = 0.6 * a + 0.4 * b;
  return params.weather_min + (1.0 - params.weather_min) * u;
}

double SolarPowerAt(const SolarHarvester::Params& params, SimTime t) {
  const double s = t.ToSeconds();
  const double day_frac = std::fmod(s, kDaySeconds) / kDaySeconds;
  // Half-sine daylight between 06:00 and 18:00.
  const double sun = std::sin((day_frac - 0.25) * 2.0 * M_PI);
  if (sun <= 0) {
    return 0.0;
  }
  const double year_frac = std::fmod(s, kYearSeconds) / kYearSeconds;
  const double season =
      1.0 + params.seasonal_swing * std::sin(2.0 * M_PI * year_frac + params.latitude_phase -
                                             M_PI / 2.0);
  const int64_t day_index = static_cast<int64_t>(s / kDaySeconds);
  const double weather = SolarWeatherFactor(params, day_index);
  const double years = s / kYearSeconds;
  const double degradation = std::pow(1.0 - params.degradation_per_year, years);
  return params.peak_power_w * sun * season * weather * degradation;
}

double CorrosionPowerAt(const CorrosionHarvester::Params& params, SimTime t) {
  const double frac = t.ToSeconds() / params.structure_life.ToSeconds();
  if (frac >= 1.0) {
    // Structure past design life: keep the end-of-life trickle (real
    // structures outlive their design life; the anode keeps corroding).
    return params.initial_power_w * params.end_of_life_fraction;
  }
  const double factor = 1.0 - (1.0 - params.end_of_life_fraction) * frac;
  return params.initial_power_w * factor;
}

double CorrosionEnergyOver(const CorrosionHarvester::Params& params, SimTime from, SimTime to) {
  assert(to >= from);
  // Piecewise: linear ramp to structure_life, constant after.
  auto integral_to = [&](SimTime t) {
    const double life = params.structure_life.ToSeconds();
    const double p0 = params.initial_power_w;
    const double pe = p0 * params.end_of_life_fraction;
    const double x = t.ToSeconds();
    if (x <= life) {
      const double p_at = p0 - (p0 - pe) * (x / life);
      return 0.5 * (p0 + p_at) * x;
    }
    const double ramp_area = 0.5 * (p0 + pe) * life;
    return ramp_area + pe * (x - life);
  };
  return integral_to(to) - integral_to(from);
}

double ThermalPowerAt(const ThermalHarvester::Params& params, SimTime t) {
  const double s = t.ToSeconds();
  const double day_frac = std::fmod(s, kDaySeconds) / kDaySeconds;
  // Gradient peaks mid-afternoon (~15:00), minimal pre-dawn.
  const double phase = std::sin((day_frac - 0.375) * 2.0 * M_PI);
  const double f = params.baseline_fraction +
                   (1.0 - params.baseline_fraction) * std::max(0.0, phase);
  return params.peak_power_w * f;
}

double VibrationPowerAt(const VibrationHarvester::Params& params, SimTime t) {
  const double s = t.ToSeconds();
  const double day_frac = std::fmod(s, kDaySeconds) / kDaySeconds;
  const int64_t day_index = static_cast<int64_t>(s / kDaySeconds);
  const int dow = static_cast<int>(day_index % 7);  // Sim starts on day 0 = Monday.
  const bool weekend = dow >= 5;

  // Two rush-hour humps (08:00 and 17:30) over a daytime plateau.
  auto hump = [](double x, double center, double width) {
    const double d = (x - center) / width;
    return std::exp(-d * d);
  };
  double traffic = params.night_fraction;
  if (day_frac > 0.25 && day_frac < 0.95) {
    traffic = 0.35 + 0.65 * (hump(day_frac, 8.0 / 24, 0.05) + hump(day_frac, 17.5 / 24, 0.06));
    traffic = std::min(traffic, 1.0);
  }
  if (weekend) {
    traffic *= params.weekend_factor;
  }
  return params.peak_power_w * traffic;
}

}  // namespace

double SolarEnergyOverAnalytic(const SolarHarvester::Params& params, SimTime from, SimTime to) {
  assert(to >= from);
  const double t0 = from.ToSeconds();
  const double t1 = to.ToSeconds();
  if (t1 <= t0) {
    return 0.0;
  }
  const double retained = 1.0 - params.degradation_per_year;
  if (retained <= 0.0) {
    return 0.0;  // pow(<=0, years) is 0 (or NaN) everywhere past t = 0.
  }
  // pow(retained, s / Y) == e^{-lambda * s}.
  const double lambda = -std::log(retained) / kYearSeconds;
  const double a = 2.0 * M_PI / kDaySeconds;   // Diurnal angular frequency.
  const double b = 2.0 * M_PI / kYearSeconds;  // Seasonal angular frequency.
  const double alpha = -M_PI / 2.0;            // sin peaks at noon.
  const double beta = params.latitude_phase - M_PI / 2.0;
  const double swing = params.seasonal_swing;
  const double k2 = lambda * lambda;
  // Antiderivatives of e^{-lambda*s} * {sin,cos}(c*s + g).
  auto f_sin = [lambda, k2](double c, double g, double s) {
    return std::exp(-lambda * s) *
           (-lambda * std::sin(c * s + g) - c * std::cos(c * s + g)) / (k2 + c * c);
  };
  auto f_cos = [lambda, k2](double c, double g, double s) {
    return std::exp(-lambda * s) *
           (-lambda * std::cos(c * s + g) + c * std::sin(c * s + g)) / (k2 + c * c);
  };
  double total = 0.0;
  const int64_t last_day = static_cast<int64_t>(t1 / kDaySeconds);
  for (int64_t day = static_cast<int64_t>(t0 / kDaySeconds); day <= last_day; ++day) {
    const double day_start = static_cast<double>(day) * kDaySeconds;
    // Daylight gate: sin((day_frac - 0.25) * 2pi) > 0 on (06:00, 18:00).
    const double lo = std::max(t0, day_start + 0.25 * kDaySeconds);
    const double hi = std::min(t1, day_start + 0.75 * kDaySeconds);
    if (hi <= lo) {
      continue;
    }
    const double weather = SolarWeatherFactor(params, day);
    // sin(as+alpha) * (1 + A*sin(bs+beta)) expands via product-to-sum into
    // sin(as+alpha) + (A/2)*[cos((a-b)s+(alpha-beta)) - cos((a+b)s+(alpha+beta))].
    const double base = f_sin(a, alpha, hi) - f_sin(a, alpha, lo);
    const double cross =
        0.5 * swing *
        ((f_cos(a - b, alpha - beta, hi) - f_cos(a - b, alpha - beta, lo)) -
         (f_cos(a + b, alpha + beta, hi) - f_cos(a + b, alpha + beta, lo)));
    // The integrand is >= 0, but a window holding microseconds of daylight
    // subtracts two nearly equal antiderivative values, which can round
    // below zero.
    total += std::max(0.0, params.peak_power_w * weather * (base + cross));
  }
  return total;
}

double ThermalEnergyOverAnalytic(const ThermalHarvester::Params& params, SimTime from,
                                 SimTime to) {
  assert(to >= from);
  const double t0 = from.ToSeconds();
  const double t1 = to.ToSeconds();
  if (t1 <= t0) {
    return 0.0;
  }
  const double a = 2.0 * M_PI / kDaySeconds;
  const double gamma = -0.75 * M_PI;  // sin((day_frac - 0.375) * 2pi).
  auto f = [a, gamma](double s) { return -std::cos(a * s + gamma) / a; };
  double total = params.peak_power_w * params.baseline_fraction * (t1 - t0);
  const double swing = params.peak_power_w * (1.0 - params.baseline_fraction);
  const int64_t last_day = static_cast<int64_t>(t1 / kDaySeconds);
  for (int64_t day = static_cast<int64_t>(t0 / kDaySeconds); day <= last_day; ++day) {
    const double day_start = static_cast<double>(day) * kDaySeconds;
    // Positive lobe of the shifted sine: (09:00, 21:00).
    const double lo = std::max(t0, day_start + 0.375 * kDaySeconds);
    const double hi = std::min(t1, day_start + 0.875 * kDaySeconds);
    if (hi > lo) {
      total += swing * (f(hi) - f(lo));
    }
  }
  return total;
}

double VibrationEnergyOverAnalytic(const VibrationHarvester::Params& params, SimTime from,
                                   SimTime to) {
  assert(to >= from);
  const double t0 = from.ToSeconds();
  const double t1 = to.ToSeconds();
  if (t1 <= t0) {
    return 0.0;
  }
  constexpr double kSqrtPi = 1.7724538509055160273;
  // Integral of exp(-((x-c)/w)^2) over [x0, x1].
  auto hump = [kSqrtPi](double x0, double x1, double c, double w) {
    return w * (kSqrtPi / 2.0) * (std::erf((x1 - c) / w) - std::erf((x0 - c) / w));
  };
  double total = 0.0;
  const int64_t last_day = static_cast<int64_t>(t1 / kDaySeconds);
  for (int64_t day = static_cast<int64_t>(t0 / kDaySeconds); day <= last_day; ++day) {
    const double day_start = static_cast<double>(day) * kDaySeconds;
    const double seg_lo = std::max(t0, day_start);
    const double seg_hi = std::min(t1, day_start + kDaySeconds);
    if (seg_hi <= seg_lo) {
      continue;
    }
    // Work in day fractions; traffic(x) is piecewise over x = s/D - day.
    const double x0 = (seg_lo - day_start) / kDaySeconds;
    const double x1 = (seg_hi - day_start) / kDaySeconds;
    const double d0 = std::max(x0, 0.25);
    const double d1 = std::min(x1, 0.95);
    const double day_len = std::max(0.0, d1 - d0);
    double traffic_integral = params.night_fraction * ((x1 - x0) - day_len);
    if (day_len > 0.0) {
      traffic_integral += 0.35 * day_len +
                          0.65 * (hump(d0, d1, 8.0 / 24, 0.05) + hump(d0, d1, 17.5 / 24, 0.06));
    }
    const double factor = (day % 7 >= 5) ? params.weekend_factor : 1.0;
    total += params.peak_power_w * factor * traffic_integral * kDaySeconds;
  }
  return total;
}

// --- HarvesterModel ------------------------------------------------------

HarvesterModel HarvesterModel::Constant(double power_w) {
  HarvesterModel m;
  m.kind_ = Kind::kConstant;
  m.params_.constant.power_w = power_w;
  return m;
}

HarvesterModel HarvesterModel::Solar(const SolarHarvester::Params& params) {
  HarvesterModel m;
  m.kind_ = Kind::kSolar;
  m.params_.solar = params;
  return m;
}

HarvesterModel HarvesterModel::Corrosion(const CorrosionHarvester::Params& params) {
  HarvesterModel m;
  m.kind_ = Kind::kCorrosion;
  m.params_.corrosion = params;
  return m;
}

HarvesterModel HarvesterModel::Thermal(const ThermalHarvester::Params& params) {
  HarvesterModel m;
  m.kind_ = Kind::kThermal;
  m.params_.thermal = params;
  return m;
}

HarvesterModel HarvesterModel::Vibration(const VibrationHarvester::Params& params) {
  HarvesterModel m;
  m.kind_ = Kind::kVibration;
  m.params_.vibration = params;
  return m;
}

double HarvesterModel::PowerAt(SimTime t) const {
  switch (kind_) {
    case Kind::kConstant:
      return params_.constant.power_w;
    case Kind::kSolar:
      return SolarPowerAt(params_.solar, t);
    case Kind::kCorrosion:
      return CorrosionPowerAt(params_.corrosion, t);
    case Kind::kThermal:
      return ThermalPowerAt(params_.thermal, t);
    case Kind::kVibration:
      return VibrationPowerAt(params_.vibration, t);
  }
  return 0.0;
}

double HarvesterModel::EnergyOver(SimTime from, SimTime to) const {
  switch (kind_) {
    case Kind::kConstant:
      return params_.constant.power_w * (to - from).ToSeconds();
    case Kind::kSolar:
      return SolarEnergyOverAnalytic(params_.solar, from, to);
    case Kind::kCorrosion:
      return CorrosionEnergyOver(params_.corrosion, from, to);
    case Kind::kThermal:
      return ThermalEnergyOverAnalytic(params_.thermal, from, to);
    case Kind::kVibration:
      return VibrationEnergyOverAnalytic(params_.vibration, from, to);
  }
  return 0.0;
}

double HarvesterModel::MeanPower(SimTime from, SimTime to) const {
  const double span = (to - from).ToSeconds();
  if (span <= 0) {
    return 0.0;
  }
  return EnergyOver(from, to) / span;
}

const char* HarvesterModel::name() const {
  switch (kind_) {
    case Kind::kConstant:
      return "constant";
    case Kind::kSolar:
      return "solar";
    case Kind::kCorrosion:
      return "rebar-corrosion";
    case Kind::kThermal:
      return "thermal";
    case Kind::kVibration:
      return "vibration";
  }
  return "harvester";
}

}  // namespace centsim
