#include "src/energy/harvester.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/random.h"

namespace centsim {
namespace {

SolarHarvester MakeSolar() {
  SolarHarvester::Params p;
  p.peak_power_w = 0.010;
  return SolarHarvester(p);
}

TEST(SolarTest, ZeroAtNight) {
  SolarHarvester sun = MakeSolar();
  // Midnight on several days.
  for (int d = 0; d < 5; ++d) {
    EXPECT_DOUBLE_EQ(sun.PowerAt(SimTime::Days(d)), 0.0);
    EXPECT_DOUBLE_EQ(sun.PowerAt(SimTime::Days(d) + SimTime::Hours(3)), 0.0);
  }
}

TEST(SolarTest, PositiveAtNoon) {
  SolarHarvester sun = MakeSolar();
  for (int d = 0; d < 30; ++d) {
    EXPECT_GT(sun.PowerAt(SimTime::Days(d) + SimTime::Hours(12)), 0.0);
  }
}

TEST(SolarTest, NoonBeatsMorning) {
  SolarHarvester sun = MakeSolar();
  const SimTime day = SimTime::Days(10);
  EXPECT_GT(sun.PowerAt(day + SimTime::Hours(12)), sun.PowerAt(day + SimTime::Hours(7)));
}

TEST(SolarTest, DegradationReducesOutputOverDecades) {
  SolarHarvester sun = MakeSolar();
  // Compare mean power of year 0 vs year 40 (same seasonal window).
  const double early = sun.MeanPower(SimTime(), SimTime::Years(1));
  const double late = sun.MeanPower(SimTime::Years(40), SimTime::Years(41));
  EXPECT_LT(late, early);
  // 0.5%/yr for 40 years ~ 18% loss.
  EXPECT_NEAR(late / early, std::pow(0.995, 40.0), 0.05);
}

TEST(SolarTest, MeanPowerIsReasonableFractionOfPeak) {
  SolarHarvester sun = MakeSolar();
  const double mean = sun.MeanPower(SimTime(), SimTime::Years(1));
  EXPECT_GT(mean, 0.01 * 0.05);  // > 5% of peak.
  EXPECT_LT(mean, 0.01 * 0.5);   // < 50% of peak.
}

TEST(SolarTest, WeatherVariesAcrossDays) {
  SolarHarvester sun = MakeSolar();
  const double d1 = sun.PowerAt(SimTime::Days(100) + SimTime::Hours(12));
  const double d2 = sun.PowerAt(SimTime::Days(101) + SimTime::Hours(12));
  const double d3 = sun.PowerAt(SimTime::Days(140) + SimTime::Hours(12));
  EXPECT_TRUE(d1 != d2 || d2 != d3);
}

TEST(HarvesterTest, EnergyOverIsAdditive) {
  SolarHarvester sun = MakeSolar();
  const SimTime a = SimTime::Hours(6);
  const SimTime b = SimTime::Hours(12);
  const SimTime c = SimTime::Hours(18);
  const double whole = sun.EnergyOver(a, c);
  const double split = sun.EnergyOver(a, b) + sun.EnergyOver(b, c);
  EXPECT_NEAR(whole, split, whole * 0.02 + 1e-9);
}

TEST(HarvesterTest, EnergyOverEmptyIntervalIsZero) {
  SolarHarvester sun = MakeSolar();
  EXPECT_DOUBLE_EQ(sun.EnergyOver(SimTime::Hours(5), SimTime::Hours(5)), 0.0);
}

TEST(CorrosionTest, NearConstantOutput) {
  CorrosionHarvester::Params p;
  CorrosionHarvester rebar(p);
  EXPECT_DOUBLE_EQ(rebar.PowerAt(SimTime()), 300e-6);
  EXPECT_GT(rebar.PowerAt(SimTime::Years(25)), 150e-6);
}

TEST(CorrosionTest, DecaysToEndOfLifeFraction) {
  CorrosionHarvester::Params p;
  p.initial_power_w = 300e-6;
  p.structure_life = SimTime::Years(50);
  p.end_of_life_fraction = 0.4;
  CorrosionHarvester rebar(p);
  EXPECT_NEAR(rebar.PowerAt(SimTime::Years(50)), 120e-6, 1e-9);
  // Holds the trickle after the structure's design life.
  EXPECT_NEAR(rebar.PowerAt(SimTime::Years(80)), 120e-6, 1e-9);
}

TEST(CorrosionTest, ClosedFormMatchesNumericIntegral) {
  CorrosionHarvester::Params p;
  CorrosionHarvester rebar(p);
  const SimTime from = SimTime::Years(10);
  const SimTime to = SimTime::Years(60);  // Spans the ramp/flat boundary.
  const double closed = rebar.EnergyOver(from, to);
  // Generic trapezoid from the base class.
  const double numeric = rebar.Harvester::EnergyOver(from, to);
  EXPECT_NEAR(closed, numeric, closed * 0.001);
}

TEST(ThermalTest, AfternoonPeak) {
  ThermalHarvester::Params p;
  ThermalHarvester teg(p);
  const SimTime day = SimTime::Days(3);
  EXPECT_GT(teg.PowerAt(day + SimTime::Hours(15)), teg.PowerAt(day + SimTime::Hours(4)));
  EXPECT_GT(teg.PowerAt(day + SimTime::Hours(4)), 0.0);  // Baseline, not zero.
}

TEST(VibrationTest, RushHourBeatsNight) {
  VibrationHarvester::Params p;
  VibrationHarvester vib(p);
  const SimTime monday = SimTime::Days(7);  // Day 7 = Monday again.
  EXPECT_GT(vib.PowerAt(monday + SimTime::Hours(8)), vib.PowerAt(monday + SimTime::Hours(2)));
}

TEST(VibrationTest, WeekendQuieterThanWeekday) {
  VibrationHarvester::Params p;
  VibrationHarvester vib(p);
  const SimTime mon = SimTime::Days(0) + SimTime::Hours(8);
  const SimTime sat = SimTime::Days(5) + SimTime::Hours(8);
  EXPECT_GT(vib.PowerAt(mon), vib.PowerAt(sat));
}

// --- Closed-form integrals vs a refined reference integrator ---------------
//
// The sampled engine's fast-forward banks multi-year spans through the
// closed forms (EnergyOverAnalytic), so these must match the *true*
// integral of PowerAt to near machine precision. The default EnergyOver
// trapezoid caps its step count and is only ~1e-3 accurate over long
// spans, so the 1e-9 reference here is an adaptive Simpson run piecewise
// between the power models' smooth-piece boundaries (day edges, the
// daylight/thermal-lobe/traffic gates, and the rush-hour hump centers).

double SimpsonEstimate(double a, double b, double fa, double fm, double fb) {
  return (b - a) / 6.0 * (fa + 4.0 * fm + fb);
}

double AdaptiveStep(const std::function<double(double)>& f, double a, double b, double fa,
                    double fb, double fm, double whole, double eps, int depth) {
  const double m = 0.5 * (a + b);
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double left = SimpsonEstimate(a, m, fa, flm, fm);
  const double right = SimpsonEstimate(m, b, fm, frm, fb);
  const double delta = left + right - whole;
  if (depth <= 0 || std::fabs(delta) <= 15.0 * eps) {
    return left + right + delta / 15.0;
  }
  return AdaptiveStep(f, a, m, fa, fm, flm, left, 0.5 * eps, depth - 1) +
         AdaptiveStep(f, m, b, fm, fb, frm, right, 0.5 * eps, depth - 1);
}

double AdaptiveSimpson(const std::function<double(double)>& f, double a, double b, double eps) {
  if (!(b > a)) {
    return 0.0;
  }
  const double fa = f(a);
  const double fb = f(b);
  const double fm = f(0.5 * (a + b));
  return AdaptiveStep(f, a, b, fa, fb, fm, SimpsonEstimate(a, b, fa, fm, fb), eps, 48);
}

// Integrates PowerAt over [from, to] with breakpoints at every day edge
// and every within-day piece boundary, targeting ~1e-11 relative accuracy
// (scale is the closed form's own magnitude — it only sets tolerances).
double ReferenceEnergy(const std::function<double(SimTime)>& power_at, SimTime from, SimTime to,
                       double scale_j) {
  constexpr double kDay = 24.0 * 3600.0;
  // Gates and kinks of the three periodic models, as day fractions:
  // solar daylight (0.25, 0.75), thermal lobe (0.375, 0.875), traffic
  // window (0.25, 0.95), rush-hour hump centers (08:00, 17:30).
  const double kCuts[] = {0.25, 8.0 / 24.0, 0.375, 17.5 / 24.0, 0.75, 0.875, 0.95};
  const double t0 = from.ToSeconds();
  const double t1 = to.ToSeconds();
  std::vector<double> cuts;
  cuts.push_back(t0);
  const int64_t last_day = static_cast<int64_t>(t1 / kDay);
  for (int64_t day = static_cast<int64_t>(t0 / kDay); day <= last_day; ++day) {
    const double day_start = static_cast<double>(day) * kDay;
    const double edges[] = {day_start,
                            day_start + kCuts[0] * kDay,
                            day_start + kCuts[1] * kDay,
                            day_start + kCuts[2] * kDay,
                            day_start + kCuts[3] * kDay,
                            day_start + kCuts[4] * kDay,
                            day_start + kCuts[5] * kDay,
                            day_start + kCuts[6] * kDay};
    for (const double e : edges) {
      if (e > t0 && e < t1) {
        cuts.push_back(e);
      }
    }
  }
  cuts.push_back(t1);
  std::sort(cuts.begin(), cuts.end());
  const auto f = [&](double s) { return power_at(SimTime::Seconds(s)); };
  const double eps_total = 1e-11 * std::max(std::fabs(scale_j), 1e-12);
  double total = 0.0;
  for (size_t i = 1; i < cuts.size(); ++i) {
    const double span = cuts[i] - cuts[i - 1];
    if (span <= 0.0) {
      continue;
    }
    total += AdaptiveSimpson(f, cuts[i - 1], cuts[i], eps_total * (span / (t1 - t0)));
  }
  return total;
}

void ExpectClosedFormMatchesReference(const HarvesterModel& model, SimTime from, SimTime to) {
  const double analytic = model.EnergyOverAnalytic(from, to);
  ASSERT_GT(analytic, 0.0);
  const double reference =
      ReferenceEnergy([&](SimTime t) { return model.PowerAt(t); }, from, to, analytic);
  EXPECT_LT(std::fabs(analytic - reference) / reference, 1e-9)
      << model.name() << " over [" << from.ToSeconds() << ", " << to.ToSeconds()
      << "]s: analytic " << analytic << " reference " << reference;
}

TEST(ClosedFormParityTest, SolarMatchesReferenceOverMultiYearSpans) {
  SolarHarvester::Params p;
  ExpectClosedFormMatchesReference(HarvesterModel::Solar(p), SimTime(), SimTime::Years(2));
  // Partial-day endpoints inside daylight, years in.
  ExpectClosedFormMatchesReference(HarvesterModel::Solar(p),
                                   SimTime::Days(100) + SimTime::Hours(7) + SimTime::Minutes(17),
                                   SimTime::Years(3) + SimTime::Hours(13));
  // Stressed parameters: deep seasonal swing, fast degradation, offset phase.
  SolarHarvester::Params hard;
  hard.seasonal_swing = 0.6;
  hard.degradation_per_year = 0.03;
  hard.latitude_phase = 1.1;
  hard.weather_seed = 99;
  ExpectClosedFormMatchesReference(HarvesterModel::Solar(hard), SimTime::Days(3),
                                   SimTime::Years(2) + SimTime::Days(11));
}

TEST(ClosedFormParityTest, ThermalMatchesReferenceOverMultiYearSpans) {
  ThermalHarvester::Params p;
  ExpectClosedFormMatchesReference(HarvesterModel::Thermal(p), SimTime(), SimTime::Years(2));
  p.baseline_fraction = 0.35;
  ExpectClosedFormMatchesReference(HarvesterModel::Thermal(p),
                                   SimTime::Days(40) + SimTime::Hours(11),
                                   SimTime::Years(2) + SimTime::Hours(5));
}

TEST(ClosedFormParityTest, VibrationMatchesReferenceOverMultiYearSpans) {
  VibrationHarvester::Params p;
  ExpectClosedFormMatchesReference(HarvesterModel::Vibration(p), SimTime(), SimTime::Years(2));
  p.weekend_factor = 0.3;
  p.night_fraction = 0.12;
  ExpectClosedFormMatchesReference(HarvesterModel::Vibration(p),
                                   SimTime::Days(6) + SimTime::Hours(9),  // Mid-weekend start.
                                   SimTime::Years(2) + SimTime::Days(4));
}

TEST(ClosedFormParityTest, CorrosionAndConstantAreExact) {
  CorrosionHarvester::Params p;
  const HarvesterModel corrosion = HarvesterModel::Corrosion(p);
  // Piecewise-linear power: reference with a breakpoint at structure life.
  const SimTime from = SimTime::Years(49);
  const SimTime to = SimTime::Years(51);  // Straddles the 50-year knee.
  const double analytic = corrosion.EnergyOverAnalytic(from, to);
  double reference =
      ReferenceEnergy([&](SimTime t) { return corrosion.PowerAt(t); }, from,
                      p.structure_life, analytic) +
      ReferenceEnergy([&](SimTime t) { return corrosion.PowerAt(t); }, p.structure_life, to,
                      analytic);
  EXPECT_LT(std::fabs(analytic - reference) / reference, 1e-9);

  const HarvesterModel constant = HarvesterModel::Constant(2.5e-3);
  EXPECT_DOUBLE_EQ(constant.EnergyOverAnalytic(SimTime::Days(1), SimTime::Days(3)),
                   2.5e-3 * 2.0 * 24.0 * 3600.0);
}

TEST(ClosedFormParityTest, VirtualAndModelClosedFormsAreBitIdentical) {
  // The virtual overrides, the free functions, and the tagged union all
  // share one implementation — equal params must produce equal doubles.
  SolarHarvester::Params sp;
  sp.seasonal_swing = 0.5;
  const SimTime from = SimTime::Days(200);
  const SimTime to = SimTime::Years(4);
  EXPECT_EQ(SolarHarvester(sp).EnergyOver(from, to),
            HarvesterModel::Solar(sp).EnergyOverAnalytic(from, to));
  EXPECT_EQ(SolarEnergyOverAnalytic(sp, from, to),
            HarvesterModel::Solar(sp).EnergyOverAnalytic(from, to));
  ThermalHarvester::Params tp;
  EXPECT_EQ(ThermalHarvester(tp).EnergyOver(from, to),
            HarvesterModel::Thermal(tp).EnergyOverAnalytic(from, to));
  VibrationHarvester::Params vp;
  EXPECT_EQ(VibrationHarvester(vp).EnergyOver(from, to),
            HarvesterModel::Vibration(vp).EnergyOverAnalytic(from, to));
}

TEST(ClosedFormParityTest, ZeroLengthSpanIsZero) {
  const SimTime t = SimTime::Days(123) + SimTime::Hours(10);
  EXPECT_DOUBLE_EQ(HarvesterModel::Solar(SolarHarvester::Params{}).EnergyOverAnalytic(t, t), 0.0);
  EXPECT_DOUBLE_EQ(HarvesterModel::Thermal(ThermalHarvester::Params{}).EnergyOverAnalytic(t, t),
                   0.0);
  EXPECT_DOUBLE_EQ(
      HarvesterModel::Vibration(VibrationHarvester::Params{}).EnergyOverAnalytic(t, t), 0.0);
}

TEST(ClosedFormParityTest, TrapezoidDefaultAgreesCoarsely) {
  // The serial engine's adaptive trapezoid is the digest-stable default;
  // it should sit within a couple percent of the exact integral.
  const SimTime from = SimTime::Days(10);
  const SimTime to = SimTime::Days(40);
  for (const HarvesterModel& model :
       {HarvesterModel::Solar(SolarHarvester::Params{}),
        HarvesterModel::Thermal(ThermalHarvester::Params{}),
        HarvesterModel::Vibration(VibrationHarvester::Params{})}) {
    const double analytic = model.EnergyOverAnalytic(from, to);
    const double trapezoid = model.EnergyOver(from, to);
    EXPECT_LT(std::fabs(trapezoid - analytic) / analytic, 2e-2) << model.name();
  }
}

// --- Solar trapezoid: bit identity with the sampled reference -------------
//
// HarvesterModel::EnergyOver skips the samples of a window that lies inside
// one night and hashes each day's weather once per call. Neither may move a
// bit: the reference is the plain trapezoid over the public PowerAt, with
// the same step rule, sampling every point.

double SampledSolarTrapezoid(const HarvesterModel& model, SimTime from, SimTime to) {
  const double span = (to - from).ToSeconds();
  if (span <= 0) {
    return 0.0;
  }
  const int steps = std::clamp(static_cast<int>(span / 600.0), 16, 100000);
  const double dt = span / steps;
  double acc = 0.0;
  double prev = model.PowerAt(from);
  for (int i = 1; i <= steps; ++i) {
    const double p = model.PowerAt(from + SimTime::Seconds(dt * i));
    acc += 0.5 * (prev + p) * dt;
    prev = p;
  }
  return acc;
}

// Returns whether the window was dark (+0.0 energy) for coverage counts.
bool ExpectSolarBitIdentical(const HarvesterModel& model, SimTime from, SimTime to) {
  const double energy = model.EnergyOver(from, to);
  const double reference = SampledSolarTrapezoid(model, from, to);
  EXPECT_EQ(std::bit_cast<uint64_t>(energy), std::bit_cast<uint64_t>(reference))
      << "[" << from.micros() << ", " << to.micros() << "] us: " << energy << " vs "
      << reference;
  return std::bit_cast<uint64_t>(energy) == 0;
}

TEST(SolarTrapezoidIdentityTest, RandomWindowsMatchSampledReferenceBitForBit) {
  SolarHarvester::Params p;
  p.weather_seed = 0x5eed;
  const HarvesterModel model = HarvesterModel::Solar(p);
  RandomStream rng(20261017);
  const uint64_t horizon_us = static_cast<uint64_t>(SimTime::Years(50).micros());
  const double max_log_span = std::log(4.0 * 86400e6);
  uint64_t dark = 0;
  uint64_t lit = 0;
  for (int i = 0; i < 12000; ++i) {
    const SimTime from = SimTime::Micros(static_cast<int64_t>(rng.NextBelow(horizon_us)));
    // Half log-uniform spans from 1 us to 4 days, half uniform up to 13 h
    // (the fifty-year devices charge over about an hour).
    const int64_t span_us =
        i % 2 == 0 ? static_cast<int64_t>(std::exp(rng.Uniform(0.0, max_log_span)))
                   : static_cast<int64_t>(rng.Uniform(1.0, 13.0 * 3600e6));
    const bool was_dark =
        ExpectSolarBitIdentical(model, from, from + SimTime::Micros(std::max<int64_t>(1, span_us)));
    (was_dark ? dark : lit) += 1;
  }
  EXPECT_GT(dark, 2000u);
  EXPECT_GT(lit, 2000u);
}

TEST(SolarTrapezoidIdentityTest, WindowsNearMidnightDawnAndDuskMatchBitForBit) {
  const HarvesterModel model = HarvesterModel::Solar(SolarHarvester::Params{});
  // At exactly 18:00 the half-sine's phase rounds to double(pi) and the
  // sun is +1.2e-16 of its peak: a window touching it is not dark.
  EXPECT_GT(model.PowerAt(SimTime::Hours(18)), 0.0);
  EXPECT_GT(model.EnergyOver(SimTime::Hours(18), SimTime::Hours(18) + SimTime::Micros(1)),
            0.0);

  const int64_t day_us = SimTime::Days(1).micros();
  const int64_t hour_us = SimTime::Hours(1).micros();
  const int64_t spans_us[] = {1,           2,           3,           7,
                              600,         1000000,     600000000,   hour_us,
                              6 * hour_us, 12 * hour_us - 1, 12 * hour_us, 12 * hour_us + 1,
                              13 * hour_us, day_us};
  for (const int64_t day : {0, 1, 2, 365, 18262}) {
    for (const int64_t edge_hour : {0, 6, 18, 24}) {
      const int64_t edge = day * day_us + edge_hour * hour_us;
      for (int64_t offset = -4; offset <= 4; ++offset) {
        for (const int64_t span : spans_us) {
          // One window ending near the edge, one starting near it.
          const int64_t end = edge + offset;
          if (end - span >= 0) {
            ExpectSolarBitIdentical(model, SimTime::Micros(end - span), SimTime::Micros(end));
          }
          const int64_t start = edge + offset;
          if (start >= 0) {
            ExpectSolarBitIdentical(model, SimTime::Micros(start), SimTime::Micros(start + span));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace centsim
