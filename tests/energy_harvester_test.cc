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

HarvesterModel MakeSolar() {
  SolarHarvester::Params p;
  p.peak_power_w = 0.010;
  return HarvesterModel::Solar(p);
}

TEST(SolarTest, ZeroAtNight) {
  const HarvesterModel sun = MakeSolar();
  // Midnight on several days.
  for (int d = 0; d < 5; ++d) {
    EXPECT_DOUBLE_EQ(sun.PowerAt(SimTime::Days(d)), 0.0);
    EXPECT_DOUBLE_EQ(sun.PowerAt(SimTime::Days(d) + SimTime::Hours(3)), 0.0);
  }
}

TEST(SolarTest, PositiveAtNoon) {
  const HarvesterModel sun = MakeSolar();
  for (int d = 0; d < 30; ++d) {
    EXPECT_GT(sun.PowerAt(SimTime::Days(d) + SimTime::Hours(12)), 0.0);
  }
}

TEST(SolarTest, NoonBeatsMorning) {
  const HarvesterModel sun = MakeSolar();
  const SimTime day = SimTime::Days(10);
  EXPECT_GT(sun.PowerAt(day + SimTime::Hours(12)), sun.PowerAt(day + SimTime::Hours(7)));
}

TEST(SolarTest, DegradationReducesOutputOverDecades) {
  const HarvesterModel sun = MakeSolar();
  // Compare mean power of year 0 vs year 40 (same seasonal window).
  const double early = sun.MeanPower(SimTime(), SimTime::Years(1));
  const double late = sun.MeanPower(SimTime::Years(40), SimTime::Years(41));
  EXPECT_LT(late, early);
  // 0.5%/yr for 40 years ~ 18% loss.
  EXPECT_NEAR(late / early, std::pow(0.995, 40.0), 0.05);
}

TEST(SolarTest, MeanPowerIsReasonableFractionOfPeak) {
  const HarvesterModel sun = MakeSolar();
  const double mean = sun.MeanPower(SimTime(), SimTime::Years(1));
  EXPECT_GT(mean, 0.01 * 0.05);  // > 5% of peak.
  EXPECT_LT(mean, 0.01 * 0.5);   // < 50% of peak.
}

TEST(SolarTest, WeatherVariesAcrossDays) {
  const HarvesterModel sun = MakeSolar();
  const double d1 = sun.PowerAt(SimTime::Days(100) + SimTime::Hours(12));
  const double d2 = sun.PowerAt(SimTime::Days(101) + SimTime::Hours(12));
  const double d3 = sun.PowerAt(SimTime::Days(140) + SimTime::Hours(12));
  EXPECT_TRUE(d1 != d2 || d2 != d3);
}

TEST(HarvesterTest, EnergyOverIsAdditive) {
  const HarvesterModel sun = MakeSolar();
  const SimTime a = SimTime::Hours(6);
  const SimTime b = SimTime::Hours(12);
  const SimTime c = SimTime::Hours(18);
  const double whole = sun.EnergyOver(a, c);
  const double split = sun.EnergyOver(a, b) + sun.EnergyOver(b, c);
  EXPECT_NEAR(whole, split, whole * 0.02 + 1e-9);
}

TEST(HarvesterTest, EnergyOverEmptyIntervalIsZero) {
  const HarvesterModel sun = MakeSolar();
  EXPECT_DOUBLE_EQ(sun.EnergyOver(SimTime::Hours(5), SimTime::Hours(5)), 0.0);
}

TEST(CorrosionTest, NearConstantOutput) {
  const HarvesterModel rebar = HarvesterModel::Corrosion(CorrosionHarvester::Params{});
  EXPECT_DOUBLE_EQ(rebar.PowerAt(SimTime()), 300e-6);
  EXPECT_GT(rebar.PowerAt(SimTime::Years(25)), 150e-6);
}

TEST(CorrosionTest, DecaysToEndOfLifeFraction) {
  CorrosionHarvester::Params p;
  p.initial_power_w = 300e-6;
  p.structure_life = SimTime::Years(50);
  p.end_of_life_fraction = 0.4;
  const HarvesterModel rebar = HarvesterModel::Corrosion(p);
  EXPECT_NEAR(rebar.PowerAt(SimTime::Years(50)), 120e-6, 1e-9);
  // Holds the trickle after the structure's design life.
  EXPECT_NEAR(rebar.PowerAt(SimTime::Years(80)), 120e-6, 1e-9);
}

TEST(ThermalTest, AfternoonPeak) {
  const HarvesterModel teg = HarvesterModel::Thermal(ThermalHarvester::Params{});
  const SimTime day = SimTime::Days(3);
  EXPECT_GT(teg.PowerAt(day + SimTime::Hours(15)), teg.PowerAt(day + SimTime::Hours(4)));
  EXPECT_GT(teg.PowerAt(day + SimTime::Hours(4)), 0.0);  // Baseline, not zero.
}

TEST(VibrationTest, RushHourBeatsNight) {
  const HarvesterModel vib = HarvesterModel::Vibration(VibrationHarvester::Params{});
  const SimTime monday = SimTime::Days(7);  // Day 7 = Monday again.
  EXPECT_GT(vib.PowerAt(monday + SimTime::Hours(8)), vib.PowerAt(monday + SimTime::Hours(2)));
}

TEST(VibrationTest, WeekendQuieterThanWeekday) {
  const HarvesterModel vib = HarvesterModel::Vibration(VibrationHarvester::Params{});
  const SimTime mon = SimTime::Days(0) + SimTime::Hours(8);
  const SimTime sat = SimTime::Days(5) + SimTime::Hours(8);
  EXPECT_GT(vib.PowerAt(mon), vib.PowerAt(sat));
}

// --- Closed-form integrals vs a refined reference integrator ---------------
//
// Every engine banks harvest through the closed forms (EnergyOver): the
// detailed engines per event, the sampled fast-forward over multi-year
// spans. So these must match the *true* integral of PowerAt to near
// machine precision. The reference here is an adaptive Simpson run
// piecewise between the power models' smooth-piece boundaries (day edges,
// the daylight/thermal-lobe/traffic gates, and the rush-hour hump centers).

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
  const double analytic = model.EnergyOver(from, to);
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
  const double analytic = corrosion.EnergyOver(from, to);
  double reference =
      ReferenceEnergy([&](SimTime t) { return corrosion.PowerAt(t); }, from,
                      p.structure_life, analytic) +
      ReferenceEnergy([&](SimTime t) { return corrosion.PowerAt(t); }, p.structure_life, to,
                      analytic);
  EXPECT_LT(std::fabs(analytic - reference) / reference, 1e-9);

  const HarvesterModel constant = HarvesterModel::Constant(2.5e-3);
  EXPECT_DOUBLE_EQ(constant.EnergyOver(SimTime::Days(1), SimTime::Days(3)),
                   2.5e-3 * 2.0 * 24.0 * 3600.0);
}

TEST(ClosedFormParityTest, FreeFunctionAndModelClosedFormsAreBitIdentical) {
  // HarvesterModel::EnergyOver dispatches to the exported closed forms, so
  // equal params must produce equal doubles.
  SolarHarvester::Params sp;
  sp.seasonal_swing = 0.5;
  const SimTime from = SimTime::Days(200);
  const SimTime to = SimTime::Years(4);
  EXPECT_EQ(SolarEnergyOverAnalytic(sp, from, to),
            HarvesterModel::Solar(sp).EnergyOver(from, to));
  ThermalHarvester::Params tp;
  EXPECT_EQ(ThermalEnergyOverAnalytic(tp, from, to),
            HarvesterModel::Thermal(tp).EnergyOver(from, to));
  VibrationHarvester::Params vp;
  EXPECT_EQ(VibrationEnergyOverAnalytic(vp, from, to),
            HarvesterModel::Vibration(vp).EnergyOver(from, to));
}

TEST(HarvesterModelTest, NameOfEveryKind) {
  EXPECT_STREQ(HarvesterModel::Constant(1e-3).name(), "constant");
  EXPECT_STREQ(HarvesterModel::Solar(SolarHarvester::Params{}).name(), "solar");
  EXPECT_STREQ(HarvesterModel::Corrosion(CorrosionHarvester::Params{}).name(), "rebar-corrosion");
  EXPECT_STREQ(HarvesterModel::Thermal(ThermalHarvester::Params{}).name(), "thermal");
  EXPECT_STREQ(HarvesterModel::Vibration(VibrationHarvester::Params{}).name(), "vibration");
}

TEST(ClosedFormParityTest, ZeroLengthSpanIsZero) {
  const SimTime t = SimTime::Days(123) + SimTime::Hours(10);
  EXPECT_DOUBLE_EQ(HarvesterModel::Solar(SolarHarvester::Params{}).EnergyOver(t, t), 0.0);
  EXPECT_DOUBLE_EQ(HarvesterModel::Thermal(ThermalHarvester::Params{}).EnergyOver(t, t), 0.0);
  EXPECT_DOUBLE_EQ(HarvesterModel::Vibration(VibrationHarvester::Params{}).EnergyOver(t, t),
                   0.0);
}

// --- Short windows at the piece gates ---------------------------------------
//
// A detailed engine integrates each event's window, microseconds to hours
// long, wherever it falls: often right at a gate where a day's piece opens
// or closes.

constexpr int64_t kHourUs = 3600LL * 1000000LL;
constexpr int64_t kDayUs = 24 * kHourUs;

// Absolute tolerance for a lit window too short for a relative bound. The
// solar form subtracts antiderivative values of ~100 J whose sines take
// arguments near 1e5 rad decades in, so a window that holds microseconds of
// daylight carries a fixed absolute error. Over 72,800 windows of 1 us to
// 10 min within 1 ms of 06:00 or 18:00 on 200 days up to 100 years, the
// worst |closed form - reference| was 6.5e-10 J; this leaves 3x margin.
constexpr double kGateAbsFloorJ = 2e-9;

TEST(ClosedFormParityTest, EveryKindIsNonNegativeOnGateWindows) {
  // Windows of 1 us to 100 ms that end at, start at or straddle a gate, over
  // a century. Solar's daylight piece subtracts two nearly equal
  // antiderivative values there and must not round below zero.
  const std::vector<HarvesterModel> kinds = {
      HarvesterModel::Constant(1e-3),
      HarvesterModel::Solar(SolarHarvester::Params{}),
      HarvesterModel::Corrosion(CorrosionHarvester::Params{}),
      HarvesterModel::Thermal(ThermalHarvester::Params{}),
      HarvesterModel::Vibration(VibrationHarvester::Params{})};
  // 00:00, 06:00, 09:00, 18:00, 21:00, 22:48 (day fraction 0.95), 24:00.
  const int64_t edges_us[] = {0, 6 * kHourUs, 9 * kHourUs, 18 * kHourUs, 21 * kHourUs,
                              22 * kHourUs + 48 * 60000000LL, kDayUs};
  const int64_t spans_us[] = {1, 2, 3, 7, 10, 100, 1000, 10000, 100000};
  const int64_t offsets_us[] = {0, 1, 3, 10, 100, 1000};
  std::vector<int64_t> days = {0, 1, 365, 18262, 36524};
  RandomStream rng(0x9a7e);
  while (days.size() < 1000) {
    days.push_back(static_cast<int64_t>(rng.NextBelow(36525)));
  }
  for (const HarvesterModel& model : kinds) {
    uint64_t windows = 0;
    uint64_t negative = 0;
    double worst = 0.0;
    auto check = [&](int64_t from_us, int64_t to_us) {
      if (from_us < 0) {
        return;
      }
      const double e = model.EnergyOver(SimTime::Micros(from_us), SimTime::Micros(to_us));
      ++windows;
      if (e < 0.0) {
        ++negative;
        worst = std::min(worst, e);
      }
    };
    for (const int64_t day : days) {
      for (const int64_t edge_us : edges_us) {
        const int64_t edge = day * kDayUs + edge_us;
        for (const int64_t span : spans_us) {
          for (const int64_t offset : offsets_us) {
            check(edge + offset - span, edge + offset);  // Ends `offset` after the gate.
            check(edge - offset, edge - offset + span);  // Starts `offset` before it.
          }
        }
      }
    }
    EXPECT_GT(windows, 750000u);
    EXPECT_EQ(negative, 0u) << model.name() << ": " << negative << " of " << windows
                            << " windows below zero, worst " << worst << " J";
  }
}

TEST(ClosedFormParityTest, SolarShortWindowsAtDawnDuskAndMidnight) {
  // Windows of 1 us to 13 h that start or end within 4 us of 00:00, 06:00,
  // 18:00 and 24:00. One inside a single night is exactly +0.0; a lit one
  // matches the reference within 1e-9 relative or kGateAbsFloorJ.
  const HarvesterModel model = HarvesterModel::Solar(SolarHarvester::Params{});
  const auto power_at = [&](SimTime t) { return model.PowerAt(t); };
  const int64_t spans_us[] = {1, 2, 3, 7, 600, 1000000, 600000000, kHourUs, 6 * kHourUs,
                              12 * kHourUs - 1, 12 * kHourUs, 12 * kHourUs + 1, 13 * kHourUs};
  uint64_t dark = 0;
  uint64_t lit = 0;
  auto check = [&](int64_t from_us, int64_t to_us) {
    if (from_us < 0) {
      return;
    }
    const SimTime from = SimTime::Micros(from_us);
    const SimTime to = SimTime::Micros(to_us);
    const double energy = model.EnergyOver(from, to);
    // The night around midnight of day n runs from 18:00 of day n-1 to
    // 06:00 of day n.
    const int64_t night = (from_us + 6 * kHourUs) / kDayUs;
    if (to_us <= night * kDayUs + 6 * kHourUs) {
      ++dark;
      EXPECT_EQ(std::bit_cast<uint64_t>(energy), 0u)
          << "[" << from_us << ", " << to_us << "] us: " << energy;
      return;
    }
    ++lit;
    const double tolerance = std::max(1e-9 * energy, kGateAbsFloorJ);
    // ReferenceEnergy aims at 1e-11 of its scale: a tenth of the tolerance.
    const double reference = ReferenceEnergy(power_at, from, to, 1e10 * tolerance);
    EXPECT_LE(std::fabs(energy - reference), tolerance)
        << "[" << from_us << ", " << to_us << "] us: " << energy << " vs " << reference;
  };
  for (const int64_t day : {0, 1, 365, 18262}) {
    for (const int64_t edge_hour : {0, 6, 18, 24}) {
      const int64_t edge = day * kDayUs + edge_hour * kHourUs;
      for (int64_t offset = -4; offset <= 4; ++offset) {
        for (const int64_t span : spans_us) {
          check(edge + offset - span, edge + offset);
          check(edge + offset, edge + offset + span);
        }
      }
    }
  }
  EXPECT_GT(dark, 50u);
  EXPECT_GT(lit, 50u);
}

}  // namespace
}  // namespace centsim
