#include "src/sim/metrics.h"

#include <gtest/gtest.h>

#include "src/sim/simulation.h"

namespace centsim {
namespace {

TEST(MetricLabels, SortsKeysAndFormats) {
  MetricLabels labels{{"tech", "LoRa"}, {"outcome", "delivered"}};
  EXPECT_EQ(labels.ToString(), "outcome=delivered,tech=LoRa");

  MetricLabels other;
  other.Set("outcome", "delivered");
  other.Set("tech", "LoRa");
  EXPECT_EQ(labels, other);
}

TEST(MetricLabels, SetOverwritesExistingKey) {
  MetricLabels labels;
  labels.Set("tech", "LoRa");
  labels.Set("tech", "802.15.4");
  EXPECT_EQ(labels.ToString(), "tech=802.15.4");
}

TEST(MetricsRegistry, CounterFindOrCreateIdentity) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("uplink.sent", MetricLabels{{"tech", "LoRa"}});
  Counter* same = registry.GetCounter("uplink.sent", MetricLabels{{"tech", "LoRa"}});
  Counter* other_labels = registry.GetCounter("uplink.sent", MetricLabels{{"tech", "802.15.4"}});
  Counter* other_name = registry.GetCounter("uplink.lost", MetricLabels{{"tech", "LoRa"}});

  EXPECT_EQ(a, same);
  EXPECT_NE(a, other_labels);
  EXPECT_NE(a, other_name);

  a->Increment();
  a->Increment(2.5);
  EXPECT_DOUBLE_EQ(same->value(), 3.5);
  EXPECT_DOUBLE_EQ(other_labels->value(), 0.0);
}

TEST(MetricsRegistry, InstrumentPointersStableAcrossGrowth) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("c0");
  for (int i = 1; i < 200; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    registry.GetCounter(name);
  }
  first->Increment();
  EXPECT_DOUBLE_EQ(registry.GetCounter("c0")->value(), 1.0);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("queue.depth");
  g->Set(10.0);
  g->Add(-3.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("queue.depth")->value(), 7.0);
}

TEST(MetricsRegistry, HistogramUnboundedTracksSummaryOnly) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.GetHistogram("outage.hours");
  h->Observe(1.0);
  h->Observe(3.0);
  EXPECT_EQ(h->stats().count(), 2u);
  EXPECT_DOUBLE_EQ(h->stats().mean(), 2.0);
  EXPECT_EQ(h->bins(), nullptr);
}

TEST(MetricsRegistry, HistogramBoundedSupportsQuantiles) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.GetHistogram("latency.ms", {}, 0.0, 100.0, 100);
  for (int i = 1; i <= 100; ++i) {
    h->Observe(static_cast<double>(i) - 0.5);
  }
  ASSERT_NE(h->bins(), nullptr);
  EXPECT_NEAR(h->bins()->Quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h->bins()->Quantile(0.9), 90.0, 2.0);
}

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
  registry.GetCounter("present");
  EXPECT_NE(registry.FindCounter("present"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, VisitInCreationOrder) {
  MetricsRegistry registry;
  registry.GetCounter("b");
  registry.GetCounter("a", MetricLabels{{"k", "v"}});
  registry.GetCounter("a");

  std::vector<std::string> seen;
  registry.VisitCounters([&](const std::string& name, const MetricLabels& labels,
                             const Counter&) { seen.push_back(name + "|" + labels.ToString()); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "b|");
  EXPECT_EQ(seen[1], "a|k=v");
  EXPECT_EQ(seen[2], "a|");
}

TEST(MetricsRegistry, MergeSumsCountersPoolsHistograms) {
  MetricsRegistry ensemble;
  MetricsRegistry run1;
  MetricsRegistry run2;
  run1.GetCounter("packets")->Increment(10.0);
  run2.GetCounter("packets")->Increment(5.0);
  run2.GetCounter("failures")->Increment(1.0);
  run1.GetGauge("soc")->Set(0.4);
  run2.GetGauge("soc")->Set(0.7);
  run1.GetHistogram("hours")->Observe(2.0);
  run2.GetHistogram("hours")->Observe(4.0);

  ensemble.Merge(run1);
  ensemble.Merge(run2);

  EXPECT_DOUBLE_EQ(ensemble.FindCounter("packets")->value(), 15.0);
  EXPECT_DOUBLE_EQ(ensemble.FindCounter("failures")->value(), 1.0);
  // Gauges are last-write-wins.
  EXPECT_DOUBLE_EQ(ensemble.FindGauge("soc")->value(), 0.7);
  const HistogramMetric* h = ensemble.FindHistogram("hours");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->stats().count(), 2u);
  EXPECT_DOUBLE_EQ(h->stats().mean(), 3.0);
}

TEST(MetricsRegistry, NullSafeHelpersNoOpWithoutRegistry) {
  // The disabled-observability contract: helpers take null pointers.
  MetricInc(static_cast<Counter*>(nullptr));
  MetricSet(static_cast<Gauge*>(nullptr), 1.0);
  MetricObserve(static_cast<HistogramMetric*>(nullptr), 1.0);

  Simulation sim(1);
  EXPECT_EQ(sim.metrics(), nullptr);
  EXPECT_EQ(sim.MetricCounter("x"), nullptr);
  EXPECT_EQ(sim.MetricGauge("x"), nullptr);
  EXPECT_EQ(sim.MetricHistogram("x"), nullptr);
}

TEST(MetricsRegistry, SimulationFactoriesUseAttachedRegistry) {
  MetricsRegistry registry;
  Simulation sim(1);
  sim.SetMetrics(&registry);
  Counter* c = sim.MetricCounter("events", MetricLabels{{"tech", "LoRa"}});
  ASSERT_NE(c, nullptr);
  MetricInc(c, 4.0);
  EXPECT_DOUBLE_EQ(
      registry.FindCounter("events", MetricLabels{{"tech", "LoRa"}})->value(), 4.0);
}

}  // namespace
}  // namespace centsim
