#include <gtest/gtest.h>

#include "src/mgmt/batch_project.h"
#include "src/mgmt/diary.h"

namespace centsim {
namespace {

TEST(BatchProjectTest, EveryZoneVisitedEachCycle) {
  Simulation sim(1);
  BatchProjectParams params;
  params.zone_count = 8;
  params.cycle_period = SimTime::Years(8);
  params.visit_jitter = SimTime::Days(10);
  // Three cycles end before the horizon; the fourth starts on it, so its
  // jittered visits all fall past it.
  std::vector<int> visits(8, 0);
  for (const BatchVisit& v : BatchVisits(sim, params, SimTime::Years(24))) {
    EXPECT_LE(v.at, SimTime::Years(24));
    ++visits[v.zone];
  }
  for (int v : visits) {
    EXPECT_EQ(v, 3);
  }
}

TEST(BatchProjectTest, VisitsStaggeredAcrossCycle) {
  Simulation sim(2);
  BatchProjectParams params;
  params.zone_count = 4;
  params.cycle_period = SimTime::Years(4);
  params.visit_jitter = SimTime::Days(1);
  const std::vector<BatchVisit> visits = BatchVisits(sim, params, SimTime::Years(4));
  ASSERT_EQ(visits.size(), 4u);
  // Zone z's visit falls in its slot, z years into the cycle, within the
  // jitter: the zones are spread across the cycle, not clustered at its
  // start.
  for (uint32_t z = 0; z < 4; ++z) {
    EXPECT_EQ(visits[z].zone, z);
    EXPECT_GE(visits[z].at, SimTime::Years(z));
    EXPECT_LT(visits[z].at, SimTime::Years(z) + SimTime::Days(1));
  }
}

// Cycle by cycle, zones in order, each visit carrying its cycle; the list
// through a later horizon begins with this one.
TEST(BatchProjectTest, CyclePassedToCallback) {
  Simulation sim(3);
  BatchProjectParams params;
  params.zone_count = 2;
  params.cycle_period = SimTime::Years(2);
  params.visit_jitter = SimTime::Days(1);
  const std::vector<BatchVisit> visits = BatchVisits(sim, params, SimTime::Years(7));
  ASSERT_EQ(visits.size(), 7u);  // Zone 1 of cycle 3 falls past the horizon.
  for (uint32_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].cycle, i / 2);
    EXPECT_EQ(visits[i].zone, i % 2);
  }
  const std::vector<BatchVisit> longer = BatchVisits(sim, params, SimTime::Years(9));
  ASSERT_GT(longer.size(), visits.size());
  for (uint32_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(longer[i].at, visits[i].at);
  }
}

TEST(DiaryTest, HarvestsMaintenanceRecords) {
  TraceLog trace(TraceLevel::kDebug);
  trace.Emit(SimTime::Years(1), TraceLevel::kInfo, "dev", "routine");
  trace.Emit(SimTime::Years(2), TraceLevel::kMaintenance, "gw", "PSU swap");
  trace.Emit(SimTime::Years(12), TraceLevel::kFailure, "gw", "SD card died");
  trace.Emit(SimTime::Years(25), TraceLevel::kWarning, "wallet", "low credits");
  const auto diary = ExperimentDiary::FromTrace(trace);
  EXPECT_EQ(diary.entries().size(), 3u);  // Info excluded.
}

TEST(DiaryTest, DecadeSummaries) {
  TraceLog trace(TraceLevel::kDebug);
  trace.Emit(SimTime::Years(2), TraceLevel::kMaintenance, "a", "x");
  trace.Emit(SimTime::Years(12), TraceLevel::kFailure, "b", "y");
  trace.Emit(SimTime::Years(15), TraceLevel::kFailure, "c", "z");
  trace.Emit(SimTime::Years(29), TraceLevel::kWarning, "d", "w");
  const auto by_decade = ExperimentDiary::FromTrace(trace).ByDecade();
  ASSERT_EQ(by_decade.size(), 3u);
  EXPECT_EQ(by_decade[0].maintenance_actions, 1u);
  EXPECT_EQ(by_decade[1].failures, 2u);
  EXPECT_EQ(by_decade[2].warnings, 1u);
}

TEST(DiaryTest, RenderSubsamples) {
  ExperimentDiary diary;
  for (int i = 0; i < 200; ++i) {
    diary.Append({SimTime::Days(i), TraceLevel::kMaintenance, "c", "entry"});
  }
  const std::string rendered = diary.Render(20);
  EXPECT_NE(rendered.find("200 entries total"), std::string::npos);
}

TEST(DiaryTest, EmptyTraceEmptyDiary) {
  TraceLog trace;
  const auto diary = ExperimentDiary::FromTrace(trace);
  EXPECT_TRUE(diary.entries().empty());
  EXPECT_TRUE(diary.ByDecade().empty());
}

}  // namespace
}  // namespace centsim
