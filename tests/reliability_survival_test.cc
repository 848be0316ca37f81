#include "src/reliability/survival.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/reliability/component.h"
#include "src/reliability/hazard.h"
#include "src/sim/random.h"

namespace centsim {
namespace {

TEST(KaplanMeierTest, NoCensoringMatchesEmpiricalSurvival) {
  KaplanMeier km;
  // Failures at 1..10 years, no censoring: S(t) is the empirical fraction.
  for (int i = 1; i <= 10; ++i) {
    km.Observe(SimTime::Years(i), true);
  }
  EXPECT_DOUBLE_EQ(km.SurvivalAt(SimTime::Years(0.5)), 1.0);
  EXPECT_NEAR(km.SurvivalAt(SimTime::Years(5)), 0.5, 1e-12);
  EXPECT_NEAR(km.SurvivalAt(SimTime::Years(10)), 0.0, 1e-12);
}

TEST(KaplanMeierTest, AllCensoredStaysAtOne) {
  KaplanMeier km;
  for (int i = 1; i <= 5; ++i) {
    km.Observe(SimTime::Years(i), false);
  }
  EXPECT_DOUBLE_EQ(km.SurvivalAt(SimTime::Years(10)), 1.0);
  EXPECT_FALSE(km.MedianSurvival().has_value());
  EXPECT_EQ(km.failure_count(), 0u);
}

TEST(KaplanMeierTest, CensoringReducesAtRisk) {
  // 4 subjects: fail@2, censor@3, fail@4, censor@5.
  KaplanMeier km;
  km.Observe(SimTime::Years(2), true);
  km.Observe(SimTime::Years(3), false);
  km.Observe(SimTime::Years(4), true);
  km.Observe(SimTime::Years(5), false);
  // S(2) = 3/4; S(4) = 3/4 * (1 - 1/2) = 3/8.
  EXPECT_NEAR(km.SurvivalAt(SimTime::Years(2)), 0.75, 1e-12);
  EXPECT_NEAR(km.SurvivalAt(SimTime::Years(4)), 0.375, 1e-12);
}

TEST(KaplanMeierTest, MedianSurvival) {
  KaplanMeier km;
  for (int i = 1; i <= 100; ++i) {
    km.Observe(SimTime::Years(i), true);
  }
  const auto median = km.MedianSurvival();
  ASSERT_TRUE(median.has_value());
  EXPECT_NEAR(median->ToYears(), 50.0, 1.0);
}

TEST(KaplanMeierTest, RecoversWeibullMedian) {
  // Property: KM over draws from a known distribution recovers its median.
  WeibullHazard h(3.0, SimTime::Years(15));
  RandomStream rng(2024);
  KaplanMeier km;
  for (int i = 0; i < 5000; ++i) {
    km.Observe(h.SampleLife(rng), true);
  }
  const double expected_median = 15.0 * std::pow(std::log(2.0), 1.0 / 3.0);
  const auto median = km.MedianSurvival();
  ASSERT_TRUE(median.has_value());
  EXPECT_NEAR(median->ToYears(), expected_median, 0.4);
}

TEST(KaplanMeierTest, HeavyCensoringStillUnbiased) {
  // Censor half the population at random times; KM handles it where a
  // naive mean of observed failure times would be biased low.
  WeibullHazard h(2.0, SimTime::Years(10));
  RandomStream rng(77);
  KaplanMeier km;
  for (int i = 0; i < 8000; ++i) {
    const SimTime life = h.SampleLife(rng);
    const SimTime censor = SimTime::Years(rng.Uniform(0.0, 20.0));
    if (censor < life) {
      km.Observe(censor, false);
    } else {
      km.Observe(life, true);
    }
  }
  const double expected_median = 10.0 * std::pow(std::log(2.0), 1.0 / 2.0);
  const auto median = km.MedianSurvival();
  ASSERT_TRUE(median.has_value());
  EXPECT_NEAR(median->ToYears(), expected_median, 0.5);
}

TEST(KaplanMeierTest, RestrictedMeanOfConstantSurvival) {
  KaplanMeier km;
  km.Observe(SimTime::Years(100), false);  // Never fails within horizon.
  EXPECT_NEAR(km.RestrictedMean(SimTime::Years(10)).ToYears(), 10.0, 1e-9);
}

TEST(KaplanMeierTest, RestrictedMeanKnownCase) {
  // Single subject failing at 4y: S = 1 until 4, 0 after.
  KaplanMeier km;
  km.Observe(SimTime::Years(4), true);
  EXPECT_NEAR(km.RestrictedMean(SimTime::Years(10)).ToYears(), 4.0, 1e-9);
}

TEST(KaplanMeierTest, CurveAtRiskCountsDecrease) {
  KaplanMeier km;
  RandomStream rng(3);
  for (int i = 0; i < 100; ++i) {
    km.Observe(SimTime::Years(rng.Uniform(0.1, 30.0)), rng.NextBool(0.7));
  }
  uint64_t prev_at_risk = UINT64_MAX;
  for (const auto& pt : km.Curve()) {
    EXPECT_LE(pt.at_risk, prev_at_risk);
    prev_at_risk = pt.at_risk;
    EXPECT_GT(pt.events, 0u);
  }
}

// Append splices another estimator's observations after this one's, in
// order, and later observations follow them; the curve is the one a single
// estimator observing the same sequence gives.
TEST(KaplanMeierTest, AppendKeepsObservationOrder) {
  RandomStream rng(5);
  KaplanMeier whole;
  KaplanMeier parts[3];
  KaplanMeier merged;
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 20 + 7 * p; ++i) {
      const SurvivalObservation o{SimTime::Years(rng.Uniform(0.1, 30.0)), rng.NextBool(0.7)};
      whole.Observe(o);
      parts[p].Observe(o);
    }
    merged.Append(std::move(parts[p]));
    EXPECT_EQ(parts[p].count(), 0u);
  }
  const SurvivalObservation last{SimTime::Years(31), false};
  whole.Observe(last);
  merged.Observe(last);

  std::vector<SurvivalObservation> want;
  std::vector<SurvivalObservation> got;
  whole.ForEachObservation([&want](const SurvivalObservation& o) { want.push_back(o); });
  merged.ForEachObservation([&got](const SurvivalObservation& o) { got.push_back(o); });
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.failure_count(), whole.failure_count());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << i;
    EXPECT_EQ(got[i].failed, want[i].failed) << i;
  }
  EXPECT_EQ(merged.RestrictedMean(SimTime::Years(40)), whole.RestrictedMean(SimTime::Years(40)));
}

// Each observation is packed into one 64-bit word; the extremes a run
// produces come back exactly, failed and censored, through a splice.
TEST(KaplanMeierTest, PackedObservationsRoundTrip) {
  const SimTime times[] = {SimTime::Micros(0), SimTime::Micros(1), SimTime::Years(100)};
  std::vector<SurvivalObservation> want;
  for (const SimTime t : times) {
    want.push_back({t, true});
    want.push_back({t, false});
  }
  KaplanMeier first;
  KaplanMeier second;
  for (size_t i = 0; i < want.size(); ++i) {
    (i < 3 ? first : second).Observe(want[i]);
  }
  first.Append(std::move(second));
  std::vector<SurvivalObservation> got;
  first.ForEachObservation([&got](const SurvivalObservation& o) { got.push_back(o); });
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << i;
    EXPECT_EQ(got[i].failed, want[i].failed) << i;
  }
  EXPECT_EQ(first.count(), 6u);
  EXPECT_EQ(first.failure_count(), 3u);
}

// Failures and censorings tied at one time, observed interleaved: every
// tied observation leaves the risk set at that time and only the failures
// count as events.
TEST(KaplanMeierTest, TiedFailuresAndCensoringsKeepTheCurve) {
  KaplanMeier km;
  const bool at_one[] = {false, true, true};   // 2 failures, 1 censoring.
  const bool at_two[] = {false, true, false};  // 1 failure, 2 censorings.
  for (const bool failed : at_one) {
    km.Observe(SimTime::Years(1), failed);
  }
  km.Observe(SimTime::Years(4), false);
  for (const bool failed : at_two) {
    km.Observe(SimTime::Years(2), failed);
  }
  km.Observe(SimTime::Years(3), true);
  km.Observe(SimTime::Years(4), false);
  km.Observe(SimTime::Years(4), false);

  const auto curve = km.Curve();
  ASSERT_EQ(curve.size(), 3u);
  double s = 1.0 - 2.0 / 10.0;
  EXPECT_EQ(curve[0].time, SimTime::Years(1));
  EXPECT_EQ(curve[0].survival, s);
  EXPECT_EQ(curve[0].at_risk, 10u);
  EXPECT_EQ(curve[0].events, 2u);
  s *= 1.0 - 1.0 / 7.0;
  EXPECT_EQ(curve[1].time, SimTime::Years(2));
  EXPECT_EQ(curve[1].survival, s);
  EXPECT_EQ(curve[1].at_risk, 7u);
  EXPECT_EQ(curve[1].events, 1u);
  s *= 1.0 - 1.0 / 4.0;
  EXPECT_EQ(curve[2].time, SimTime::Years(3));
  EXPECT_EQ(curve[2].survival, s);
  EXPECT_EQ(curve[2].at_risk, 4u);
  EXPECT_EQ(curve[2].events, 1u);
}

// --- SurvivalTable (the sampled engine's one-draw life sampler) -------------

TEST(SurvivalTableTest, RecoversExponentialDistribution) {
  const double tau_years = 5.0;
  const SurvivalTable table = SurvivalTable::Build(
      [&](SimTime t) { return std::exp(-t.ToYears() / tau_years); });

  // The table's S(t) readback matches the source within grid resolution.
  for (const double y : {0.5, 2.0, 5.0, 10.0, 20.0}) {
    EXPECT_NEAR(table.SurvivalAt(SimTime::Years(y)), std::exp(-y / tau_years), 2e-3);
  }

  RandomStream rng(777);
  double sum_years = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    sum_years += table.Sample(rng).ToYears();
  }
  EXPECT_NEAR(sum_years / kDraws, tau_years, 0.15);
}

TEST(SurvivalTableTest, ConditionalSamplingIsMemorylessForExponential) {
  const double tau_years = 4.0;
  const SurvivalTable table = SurvivalTable::Build(
      [&](SimTime t) { return std::exp(-t.ToYears() / tau_years); });
  RandomStream rng(1234);
  double sum_remaining = 0.0;
  constexpr int kDraws = 20000;
  const SimTime age = SimTime::Years(6);
  for (int i = 0; i < kDraws; ++i) {
    const SimTime remaining = table.SampleConditional(rng, age);
    EXPECT_GE(remaining, SimTime());
    sum_remaining += remaining.ToYears();
  }
  // Exponential remaining life is age-independent: still tau.
  EXPECT_NEAR(sum_remaining / kDraws, tau_years, 0.15);
}

TEST(SurvivalTableTest, ExactlyOneDrawPerSample) {
  // The sampled drivers key one stream per entity and rely on Sample
  // consuming exactly one uniform — two identical streams, one sampled
  // through the table and one drained manually, must stay in lockstep.
  const SurvivalTable table =
      SurvivalTable::Build([](SimTime t) { return std::exp(-t.ToYears() / 3.0); });
  RandomStream a(42);
  RandomStream b(42);
  for (int i = 0; i < 100; ++i) {
    (void)table.Sample(a);
    (void)b.NextDouble();
  }
  EXPECT_EQ(a.NextDouble(), b.NextDouble());
}

TEST(SurvivalTableTest, MatchesComponentSamplerInDistribution) {
  // Century-sampled parity at the distribution level: a table built from
  // SeriesSystem::Survival must draw the same life distribution the serial
  // engine's SampleLife draws component by component.
  const SeriesSystem hardware = SeriesSystem::EnergyHarvestingNode();
  const SurvivalTable table =
      SurvivalTable::Build([&](SimTime t) { return hardware.Survival(t); });

  RandomStream table_rng(9001);
  RandomStream direct_rng(9002);
  constexpr int kDraws = 8000;
  double table_sum = 0.0, direct_sum = 0.0;
  std::vector<double> table_lives, direct_lives;
  table_lives.reserve(kDraws);
  direct_lives.reserve(kDraws);
  for (int i = 0; i < kDraws; ++i) {
    const double t = table.Sample(table_rng).ToYears();
    const double d = hardware.SampleLife(direct_rng).life.ToYears();
    table_sum += t;
    direct_sum += d;
    table_lives.push_back(t);
    direct_lives.push_back(d);
  }
  const double table_mean = table_sum / kDraws;
  const double direct_mean = direct_sum / kDraws;
  EXPECT_LT(std::fabs(table_mean - direct_mean) / direct_mean, 0.05)
      << "table " << table_mean << " direct " << direct_mean;

  std::sort(table_lives.begin(), table_lives.end());
  std::sort(direct_lives.begin(), direct_lives.end());
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double tq = table_lives[static_cast<size_t>(q * (kDraws - 1))];
    const double dq = direct_lives[static_cast<size_t>(q * (kDraws - 1))];
    EXPECT_LT(std::fabs(tq - dq) / dq, 0.08) << "quantile " << q;
  }
}

}  // namespace
}  // namespace centsim
