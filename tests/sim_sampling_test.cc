#include "src/sim/sampling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/sim/scheduler.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace centsim {
namespace {

TEST(SamplingPlanTest, DefaultPlanIsOffAndValidatesClean) {
  SamplingPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.Validate().empty());
  // A disabled plan never complains, even with garbage knobs — the serial
  // engine ignores them.
  plan.ci_target = -1.0;
  plan.detailed_window = SimTime();
  EXPECT_TRUE(plan.Validate().empty());
}

TEST(SamplingPlanTest, ValidateCatchesBadKnobs) {
  SamplingPlan plan;
  plan.mode = SimMode::kSampled;
  EXPECT_TRUE(plan.Validate().empty());

  SamplingPlan bad = plan;
  bad.detailed_window = SimTime();
  EXPECT_FALSE(bad.Validate().empty());

  bad = plan;
  bad.sample_period = SimTime::Days(-1);
  EXPECT_FALSE(bad.Validate().empty());

  bad = plan;
  bad.ci_target = 0.0;
  EXPECT_FALSE(bad.Validate().empty());

  bad = plan;
  bad.min_windows = 1;
  EXPECT_FALSE(bad.Validate().empty());

  bad = plan;
  bad.max_windows = 3;
  bad.min_windows = 8;
  EXPECT_FALSE(bad.Validate().empty());
}

TEST(SamplingPlanTest, ModeNames) {
  EXPECT_STREQ(SimModeName(SimMode::kDetailed), "detailed");
  EXPECT_STREQ(SimModeName(SimMode::kSampled), "sampled");
}

TEST(MetricCiTest, RelativeHalfWidthEdgeCases) {
  MetricCi ci;
  ci.mean = 10.0;
  ci.ci_half_width = 0.5;
  EXPECT_DOUBLE_EQ(ci.RelativeHalfWidth(), 0.05);
  ci.mean = -10.0;
  EXPECT_DOUBLE_EQ(ci.RelativeHalfWidth(), 0.05);
  ci.mean = 0.0;
  EXPECT_TRUE(std::isinf(ci.RelativeHalfWidth()));
  ci.ci_half_width = 0.0;
  EXPECT_DOUBLE_EQ(ci.RelativeHalfWidth(), 0.0);
}

// Student-t critical values against standard tables (two-sided 95% =>
// p = 0.975), the numbers behind every CiHalfWidth below.
TEST(SamplingStatsTest, QuantilesMatchTables) {
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(StudentTQuantile(0.975, 1.0), 12.7062, 5e-3);
  EXPECT_NEAR(StudentTQuantile(0.975, 7.0), 2.3646, 1e-3);
  EXPECT_NEAR(StudentTQuantile(0.975, 30.0), 2.0423, 1e-3);
  // Large df converges to the normal quantile.
  EXPECT_NEAR(StudentTQuantile(0.975, 1e6), NormalQuantile(0.975), 1e-4);
}

TEST(SamplingStatsTest, CiHalfWidthUnboundedUntilTwoSamples) {
  SampleSet s;
  EXPECT_TRUE(std::isinf(s.CiHalfWidth()));
  s.Add(1.0);
  EXPECT_TRUE(std::isinf(s.CiHalfWidth()));
  s.Add(1.0);
  // Two identical samples: zero variance, zero half-width.
  EXPECT_DOUBLE_EQ(s.CiHalfWidth(), 0.0);
}

TEST(SamplingStatsTest, CiHalfWidthMatchesHandComputation) {
  SampleSet s;
  for (const double x : {4.0, 6.0, 5.0, 5.0}) {
    s.Add(x);
  }
  // mean 5, sample variance 2/3, stderr sqrt(1/6), t(0.975, df=3)=3.1824.
  const double expect = 3.1824 * std::sqrt(1.0 / 6.0);
  // The t-quantile implementation is a Cornish-Fisher-style expansion,
  // good to ~0.2% at df = 3 — plenty for a convergence test.
  EXPECT_NEAR(s.CiHalfWidth(0.95), expect, 5e-3);
}

// --- SamplingController over a synthetic domain -------------------------

// A minimal driver: each detailed window runs `events_per_window` ticks
// and contributes one observation; fast-forward just records the spans it
// was asked to cover.
struct SyntheticDomain {
  Scheduler& sched;
  SampleSet metric;
  double observation = 5.0;
  int events_per_window = 3;
  uint64_t events_run = 0;
  std::vector<std::pair<int64_t, int64_t>> ff_spans;

  explicit SyntheticDomain(Scheduler& s) : sched(s) {}

  void Begin(SimTime w0, SimTime w1) {
    const int64_t span = w1.micros() - w0.micros();
    for (int i = 0; i < events_per_window; ++i) {
      // Strictly inside [w0, w1) — the window contract.
      const SimTime at = w0 + SimTime::Micros(1 + i * (span / (events_per_window + 1)));
      ASSERT_LT(at.micros(), w1.micros());
      sched.ScheduleAt(at, [this] { ++events_run; });
    }
  }
  void End(SimTime, SimTime) { metric.Add(observation); }
  void FastForward(SimTime from, SimTime to) {
    ff_spans.emplace_back(from.micros(), to.micros());
  }
};

SamplingPlan SmallPlan() {
  SamplingPlan plan;
  plan.mode = SimMode::kSampled;
  plan.detailed_window = SimTime::Days(1);
  plan.sample_period = SimTime::Days(10);
  plan.min_windows = 4;
  return plan;
}

TEST(SamplingControllerTest, ConvergesAndAccountsForEveryMicrosecond) {
  Scheduler sched;
  SyntheticDomain domain(sched);
  SamplingController controller(sched, SmallPlan());
  controller.RegisterDomain("synthetic",
                            [&](SimTime a, SimTime b) { domain.FastForward(a, b); });
  controller.SetWindowHooks([&](SimTime a, SimTime b) { domain.Begin(a, b); },
                            [&](SimTime a, SimTime b) { domain.End(a, b); });
  controller.TrackMetric("constant", &domain.metric);

  const SimTime horizon = SimTime::Years(2);
  const SamplingOutcome out = controller.Run(horizon);

  // A constant metric converges at exactly min_windows.
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.windows_measured, 4u);
  EXPECT_EQ(domain.metric.count(), 4u);
  EXPECT_EQ(domain.events_run, 4u * 3u);
  // Detailed + skipped spans tile the horizon exactly.
  EXPECT_EQ(out.sim_detailed_us + out.sim_skipped_us, horizon.micros());
  EXPECT_EQ(out.sim_detailed_us, 4 * SimTime::Days(1).micros());
  EXPECT_EQ(sched.Now(), horizon);
  // Fast-forward spans are contiguous, non-overlapping, and end at the
  // horizon (the post-convergence tail is one big span).
  ASSERT_FALSE(domain.ff_spans.empty());
  EXPECT_EQ(domain.ff_spans.back().second, horizon.micros());
  for (size_t i = 1; i < domain.ff_spans.size(); ++i) {
    EXPECT_GT(domain.ff_spans[i].first, domain.ff_spans[i - 1].second - 1);
  }

  const std::vector<MetricCi> cis = controller.MetricSummaries();
  ASSERT_EQ(cis.size(), 1u);
  EXPECT_EQ(cis[0].name, "constant");
  EXPECT_DOUBLE_EQ(cis[0].mean, 5.0);
  EXPECT_DOUBLE_EQ(cis[0].ci_half_width, 0.0);
  EXPECT_EQ(cis[0].windows, 4u);
}

TEST(SamplingControllerTest, NoTrackedMetricsMeasuresEveryWindowToHorizon) {
  Scheduler sched;
  SyntheticDomain domain(sched);
  SamplingPlan plan = SmallPlan();
  SamplingController controller(sched, plan);
  controller.RegisterDomain("synthetic",
                            [&](SimTime a, SimTime b) { domain.FastForward(a, b); });
  controller.SetWindowHooks([&](SimTime a, SimTime b) { domain.Begin(a, b); },
                            [&](SimTime a, SimTime b) { domain.End(a, b); });
  // No TrackMetric: Converged() is vacuously false, so the run measures a
  // window every sample_period until the horizon.
  const SimTime horizon = SimTime::Days(100);
  const SamplingOutcome out = controller.Run(horizon);
  EXPECT_FALSE(out.converged);
  EXPECT_EQ(out.windows_measured, 10u);  // Days 0,10,...,90.
  EXPECT_EQ(out.sim_detailed_us + out.sim_skipped_us, horizon.micros());
  EXPECT_FALSE(controller.Converged());
}

TEST(SamplingControllerTest, MaxWindowsCapsANoisyMetric) {
  Scheduler sched;
  SyntheticDomain domain(sched);
  SamplingPlan plan = SmallPlan();
  plan.min_windows = 2;
  plan.max_windows = 3;
  plan.ci_target = 1e-9;  // Unreachable for a noisy metric.
  SamplingController controller(sched, plan);
  int window = 0;
  controller.RegisterDomain("synthetic",
                            [&](SimTime a, SimTime b) { domain.FastForward(a, b); });
  controller.SetWindowHooks([&](SimTime a, SimTime b) { domain.Begin(a, b); },
                            [&](SimTime, SimTime) {
                              domain.metric.Add(window % 2 == 0 ? 1.0 : 9.0);
                              ++window;
                            });
  controller.TrackMetric("noisy", &domain.metric);
  const SimTime horizon = SimTime::Years(5);
  const SamplingOutcome out = controller.Run(horizon);
  EXPECT_FALSE(out.converged);
  EXPECT_EQ(out.windows_measured, 3u);
  EXPECT_EQ(out.sim_detailed_us + out.sim_skipped_us, horizon.micros());
  EXPECT_EQ(sched.Now(), horizon);
}

TEST(SamplingControllerTest, BackToBackWindowsHaveZeroSkip) {
  // sample_period == detailed_window degenerates to wall-to-wall detailed
  // simulation: no span is ever fast-forwarded before the (unconverged)
  // horizon is reached.
  Scheduler sched;
  SyntheticDomain domain(sched);
  SamplingPlan plan = SmallPlan();
  plan.sample_period = plan.detailed_window;
  SamplingController controller(sched, plan);
  controller.RegisterDomain("synthetic",
                            [&](SimTime a, SimTime b) { domain.FastForward(a, b); });
  controller.SetWindowHooks([&](SimTime a, SimTime b) { domain.Begin(a, b); },
                            [&](SimTime a, SimTime b) { domain.End(a, b); });
  // No tracked metric: measure everything.
  const SimTime horizon = SimTime::Days(6);
  const SamplingOutcome out = controller.Run(horizon);
  EXPECT_EQ(out.windows_measured, 6u);
  EXPECT_EQ(out.sim_skipped_us, 0);
  EXPECT_EQ(out.sim_detailed_us, horizon.micros());
  EXPECT_TRUE(domain.ff_spans.empty());  // Zero-length spans are skipped.
}

TEST(SamplingControllerTest, HorizonShorterThanOneWindowStillTerminates) {
  Scheduler sched;
  SyntheticDomain domain(sched);
  SamplingController controller(sched, SmallPlan());
  controller.RegisterDomain("synthetic",
                            [&](SimTime a, SimTime b) { domain.FastForward(a, b); });
  controller.SetWindowHooks([&](SimTime a, SimTime b) { domain.Begin(a, b); },
                            [&](SimTime a, SimTime b) { domain.End(a, b); });
  const SimTime horizon = SimTime::Hours(5);  // < detailed_window.
  const SamplingOutcome out = controller.Run(horizon);
  EXPECT_EQ(out.windows_measured, 1u);
  EXPECT_EQ(out.sim_detailed_us, horizon.micros());
  EXPECT_EQ(out.sim_skipped_us, 0);
  EXPECT_EQ(sched.Now(), horizon);
}

}  // namespace
}  // namespace centsim
