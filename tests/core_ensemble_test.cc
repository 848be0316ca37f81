// The tentpole guarantee of the ensemble engine: for a fixed base seed,
// the merged ensemble statistics are bit-identical whether the replicas
// ran on one worker or eight, in any completion order.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/experiment_api.h"
#include "src/core/montecarlo.h"
#include "src/sim/ensemble.h"
#include "src/sim/thread_pool.h"

namespace centsim {
namespace {

EnsembleOptions Opts(uint32_t replicas, uint32_t threads, bool collect_metrics = false) {
  EnsembleOptions options;
  options.replicas = replicas;
  options.threads = threads;
  options.collect_metrics = collect_metrics;
  return options;
}

FiftyYearConfig SmallConfig() {
  FiftyYearConfig cfg;
  cfg.seed = 424242;
  cfg.devices_802154 = 2;
  cfg.devices_lora = 2;
  cfg.owned_gateways = 2;
  cfg.helium_hotspots = 2;
  cfg.report_interval = SimTime::Hours(12);
  cfg.horizon = SimTime::Years(2);
  return cfg;
}

void ExpectSampleSetsIdentical(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.count(), b.count());
  const auto& va = a.values();
  const auto& vb = b.values();
  for (size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i], vb[i]) << "sample " << i;  // Bitwise, not approximate.
  }
}

void ExpectSummaryStatsIdentical(const SummaryStats& a, const SummaryStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void ExpectEnsemblesIdentical(const FiftyYearEnsemble& a, const FiftyYearEnsemble& b) {
  EXPECT_EQ(a.runs, b.runs);
  ExpectSampleSetsIdentical(a.weekly_uptime, b.weekly_uptime);
  ExpectSampleSetsIdentical(a.owned_path_uptime, b.owned_path_uptime);
  ExpectSampleSetsIdentical(a.helium_path_uptime, b.helium_path_uptime);
  ExpectSampleSetsIdentical(a.longest_gap_weeks, b.longest_gap_weeks);
  ExpectSummaryStatsIdentical(a.device_failures, b.device_failures);
  ExpectSummaryStatsIdentical(a.gateway_failures, b.gateway_failures);
  ExpectSummaryStatsIdentical(a.maintenance_hours, b.maintenance_hours);
  ExpectSummaryStatsIdentical(a.credits_spent, b.credits_spent);
  EXPECT_EQ(a.runs_meeting_weekly_goal, b.runs_meeting_weekly_goal);
  EXPECT_EQ(a.runs_helium_path_died, b.runs_helium_path_died);
}

TEST(CoreEnsembleTest, OneThreadVsEightThreadsBitIdentical) {
  const auto serial = AggregateFiftyYear(
      EnsembleRunner<FiftyYearExperiment>::Run(SmallConfig(), Opts(8, 1)).replicas,
      /*weekly_goal=*/0.9);
  const auto parallel = AggregateFiftyYear(
      EnsembleRunner<FiftyYearExperiment>::Run(SmallConfig(), Opts(8, 8)).replicas,
      /*weekly_goal=*/0.9);
  ExpectEnsemblesIdentical(serial, parallel);
}

TEST(CoreEnsembleTest, MergedRegistriesBitIdenticalAcrossThreadCounts) {
  const auto a = EnsembleRunner<FiftyYearExperiment>::Run(SmallConfig(),
                                                          Opts(6, 1, /*collect_metrics=*/true));
  const auto b = EnsembleRunner<FiftyYearExperiment>::Run(SmallConfig(),
                                                          Opts(6, 8, /*collect_metrics=*/true));
  ASSERT_NE(a.metrics, nullptr);
  ASSERT_NE(b.metrics, nullptr);
  ASSERT_EQ(a.metrics->size(), b.metrics->size());
  // Every counter (summed across replicas in index order) must match
  // exactly; visitation order is creation order, which is also identical.
  std::vector<std::pair<std::string, double>> counters_a;
  a.metrics->VisitCounters([&](const std::string& name, const MetricLabels& labels,
                               const Counter& counter) {
    counters_a.emplace_back(name + "|" + labels.ToString(), counter.value());
  });
  size_t index = 0;
  b.metrics->VisitCounters([&](const std::string& name, const MetricLabels& labels,
                               const Counter& counter) {
    ASSERT_LT(index, counters_a.size());
    EXPECT_EQ(counters_a[index].first, name + "|" + labels.ToString());
    EXPECT_EQ(counters_a[index].second, counter.value());
    ++index;
  });
  EXPECT_EQ(index, counters_a.size());
}

TEST(CoreEnsembleTest, ReplicaSeedsAreStreamSplit) {
  const auto result = EnsembleRunner<FiftyYearExperiment>::Run(SmallConfig(), Opts(4, 2));
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.replicas[i].seed, DeriveReplicaSeed(SmallConfig().seed, i));
    EXPECT_NE(result.replicas[i].seed, SmallConfig().seed + i);  // Old hazard.
  }
}

TEST(CoreEnsembleTest, DistrictExperimentRunsUnderEnsemble) {
  DistrictConfig cfg;
  cfg.seed = 17;
  cfg.device_count = 150;
  cfg.area_km2 = 2.0;
  cfg.zone_grid = 2;
  cfg.horizon = SimTime::Years(10);
  const auto serial = EnsembleRunner<DistrictExperiment>::Run(cfg, Opts(3, 1));
  const auto parallel = EnsembleRunner<DistrictExperiment>::Run(cfg, Opts(3, 3));
  ASSERT_EQ(serial.replicas.size(), 3u);
  ASSERT_EQ(parallel.replicas.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(serial.replicas[i].report.mean_service_availability,
              parallel.replicas[i].report.mean_service_availability);
    EXPECT_EQ(serial.replicas[i].report.device_failures,
              parallel.replicas[i].report.device_failures);
    EXPECT_GT(parallel.replicas[i].report.mean_service_availability, 0.0);
  }
}

// A district replica runs on an ensemble worker, so it draws its lives
// inline and starts no pool of its own, although its 4,096-site roll-out
// crosses SeriesSystem::kParallelLifeGrain. The same replica run on the
// calling thread draws on the spare cores and reports the same.
TEST(CoreEnsembleTest, DistrictReplicaDrawsInline) {
  DistrictConfig cfg;
  cfg.seed = 29;
  cfg.device_count = 4096;
  cfg.area_km2 = 25.6;
  cfg.zone_grid = 2;
  cfg.horizon = SimTime::Years(8);
  const uint64_t before = ThreadPool::WorkersStarted();
  const auto ensemble = EnsembleRunner<DistrictExperiment>::Run(cfg, Opts(2, 2));
  EXPECT_EQ(ThreadPool::WorkersStarted() - before, 2u);  // The ensemble's own.

  DistrictConfig alone_cfg = cfg;
  alone_cfg.seed = ensemble.replicas[0].seed;
  const uint64_t alone_before = ThreadPool::WorkersStarted();
  const DistrictReport alone = RunDistrictScenario(alone_cfg);
  EXPECT_EQ(ThreadPool::WorkersStarted() - alone_before, ThreadPool::DefaultThreadCount() - 1);
  const DistrictReport& replica = ensemble.replicas[0].report;
  EXPECT_GT(replica.device_replacements, 0u);
  EXPECT_EQ(alone.device_failures, replica.device_failures);
  EXPECT_EQ(alone.device_replacements, replica.device_replacements);
  EXPECT_EQ(alone.mean_service_availability, replica.mean_service_availability);
  EXPECT_EQ(alone.yearly_service, replica.yearly_service);
}

TEST(CoreEnsembleTest, CenturyExperimentRunsUnderEnsemble) {
  CenturyConfig cfg;
  cfg.seed = 23;
  cfg.fleet_size = 200;
  cfg.horizon = SimTime::Years(30);
  const auto serial = EnsembleRunner<CenturyExperiment>::Run(cfg, Opts(3, 1));
  const auto parallel = EnsembleRunner<CenturyExperiment>::Run(cfg, Opts(3, 3));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(serial.replicas[i].report.mean_availability,
              parallel.replicas[i].report.mean_availability);
    EXPECT_EQ(serial.replicas[i].report.total_failures,
              parallel.replicas[i].report.total_failures);
    EXPECT_GT(parallel.replicas[i].report.units_deployed, 0u);
  }
}

TEST(CoreEnsembleTest, ReplicasProduceDistinctRealizations) {
  const auto result = EnsembleRunner<FiftyYearExperiment>::Run(SmallConfig(), Opts(6, 2));
  bool any_different = false;
  for (size_t i = 1; i < result.replicas.size(); ++i) {
    if (result.replicas[i].report.total_packets !=
        result.replicas[0].report.total_packets) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace centsim
