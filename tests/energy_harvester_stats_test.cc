#include "src/energy/harvester_stats.h"

#include <gtest/gtest.h>

namespace centsim {
namespace {

TEST(HarvesterStatsTest, SolarDroughtIsTheNight) {
  SolarHarvester::Params sp;
  sp.peak_power_w = 0.01;
  const HarvesterModel sun = HarvesterModel::Solar(sp);
  const auto r = AssessHarvester(sun, SimTime(), SimTime::Days(30), SimTime::Minutes(15),
                                 /*threshold_w=*/1e-5);
  // Nights are ~12 h; seasonal/weather wobble can stretch the worst one.
  EXPECT_GT(r.longest_drought, SimTime::Hours(10));
  EXPECT_LT(r.longest_drought, SimTime::Hours(20));
  EXPECT_GT(r.fraction_above_threshold, 0.3);
  EXPECT_LT(r.fraction_above_threshold, 0.6);
}

TEST(HarvesterStatsTest, CorrosionIsNearlyAlwaysOn) {
  const HarvesterModel rebar = HarvesterModel::Corrosion(CorrosionHarvester::Params{});
  const auto r = AssessHarvester(rebar, SimTime(), SimTime::Days(30), SimTime::Hours(1),
                                 /*threshold_w=*/100e-6);
  EXPECT_DOUBLE_EQ(r.fraction_above_threshold, 1.0);
  EXPECT_EQ(r.longest_drought, SimTime());
  EXPECT_GT(r.capacity_factor, 0.95);  // Near-constant source.
}

TEST(HarvesterStatsTest, CorrosionBeatsSolarOnDependability) {
  // The "ambient battery" argument (paper refs [20, 21]): a weaker but
  // steady source needs far less bridging storage than a stronger bursty
  // one.
  SolarHarvester::Params sp;
  sp.peak_power_w = 0.01;
  const HarvesterModel sun = HarvesterModel::Solar(sp);
  const HarvesterModel rebar = HarvesterModel::Corrosion(CorrosionHarvester::Params{});
  const double load = 50e-6;  // 50 uW continuous-equivalent load.
  const auto solar = AssessHarvester(sun, SimTime(), SimTime::Days(60), SimTime::Minutes(30), load);
  const auto corrosion =
      AssessHarvester(rebar, SimTime(), SimTime::Days(60), SimTime::Minutes(30), load);
  EXPECT_GT(solar.mean_power_w, corrosion.mean_power_w);     // Solar is stronger...
  EXPECT_GT(solar.bridging_storage_j, corrosion.bridging_storage_j);  // ...but needier.
  EXPECT_GT(corrosion.capacity_factor, solar.capacity_factor);
}

TEST(HarvesterStatsTest, MeanMatchesHarvesterMeanPower) {
  const HarvesterModel sun = HarvesterModel::Solar(SolarHarvester::Params{});
  const auto r =
      AssessHarvester(sun, SimTime(), SimTime::Days(30), SimTime::Minutes(10), 1e-6);
  EXPECT_NEAR(r.mean_power_w, sun.MeanPower(SimTime(), SimTime::Days(30)),
              r.mean_power_w * 0.05);
}

TEST(HarvesterStatsTest, DegenerateInputs) {
  const HarvesterModel sun = HarvesterModel::Solar(SolarHarvester::Params{});
  const auto r = AssessHarvester(sun, SimTime::Days(1), SimTime::Days(1), SimTime::Hours(1), 1.0);
  EXPECT_DOUBLE_EQ(r.mean_power_w, 0.0);
  EXPECT_EQ(r.longest_drought, SimTime());
}

TEST(HarvesterStatsTest, BridgingStorageScalesWithThreshold) {
  const HarvesterModel sun = HarvesterModel::Solar(SolarHarvester::Params{});
  const auto lo = AssessHarvester(sun, SimTime(), SimTime::Days(30), SimTime::Minutes(30), 1e-5);
  const auto hi = AssessHarvester(sun, SimTime(), SimTime::Days(30), SimTime::Minutes(30), 5e-3);
  EXPECT_GE(hi.bridging_storage_j, lo.bridging_storage_j);
}

}  // namespace
}  // namespace centsim
