#include "src/energy/intermittent.h"

#include <gtest/gtest.h>

#include "src/energy/harvester.h"

namespace centsim {
namespace {

TEST(IntermittentTest, NoHarvestNoBursts) {
  const HarvesterModel dead = HarvesterModel::Constant(0.0);
  IntermittentConfig cfg;
  const auto rep = SimulateIntermittent(dead, cfg, SimTime(), SimTime::Days(10));
  EXPECT_EQ(rep.bursts, 0u);
  EXPECT_EQ(rep.tasks_completed, 0u);
}

TEST(IntermittentTest, StrongHarvestCompletesTasks) {
  // 1 mW: charges the 0.1 J bank in ~100 s.
  const HarvesterModel source = HarvesterModel::Constant(1e-3);
  IntermittentConfig cfg;
  const auto rep = SimulateIntermittent(source, cfg, SimTime(), SimTime::Days(1));
  EXPECT_GT(rep.bursts, 0u);
  EXPECT_GT(rep.tasks_completed, 0u);
  EXPECT_GT(rep.TasksPerDay(), 1.0);
}

TEST(IntermittentTest, CheckpointingBeatsRestartForBigTasks) {
  // Task needs 0.020 J; burst budget is 0.07 J... make the task bigger
  // than one burst so restart-from-zero can never finish it.
  const HarvesterModel source = HarvesterModel::Constant(5e-4);
  IntermittentConfig cfg;
  cfg.storage_j = 0.05;
  cfg.turn_on_fraction = 0.9;
  cfg.brownout_fraction = 0.2;  // Burst budget 0.035 J.
  cfg.task_energy_j = 0.10;     // Needs ~3 bursts.
  cfg.checkpoint_interval_j = 0.008;
  cfg.checkpoint_energy_j = 0.0005;

  IntermittentConfig no_ckpt = cfg;
  no_ckpt.checkpointing_enabled = false;

  const auto with = SimulateIntermittent(source, cfg, SimTime(), SimTime::Days(7));
  const auto without = SimulateIntermittent(source, no_ckpt, SimTime(), SimTime::Days(7));
  EXPECT_GT(with.tasks_completed, 0u);
  EXPECT_EQ(without.tasks_completed, 0u);
  EXPECT_GT(without.energy_wasted_j, with.energy_wasted_j);
}

TEST(IntermittentTest, EfficiencyBounded) {
  const HarvesterModel source = HarvesterModel::Constant(1e-3);
  IntermittentConfig cfg;
  const auto rep = SimulateIntermittent(source, cfg, SimTime(), SimTime::Days(2));
  EXPECT_GE(rep.Efficiency(), 0.0);
  EXPECT_LE(rep.Efficiency(), 1.0);
}

TEST(IntermittentTest, CheckpointOverheadIsCharged) {
  const HarvesterModel source = HarvesterModel::Constant(1e-3);
  IntermittentConfig cfg;
  cfg.task_energy_j = 0.5;  // Long task: many checkpoints.
  cfg.checkpoint_interval_j = 0.005;
  cfg.checkpoint_energy_j = 0.001;
  const auto rep = SimulateIntermittent(source, cfg, SimTime(), SimTime::Days(2));
  EXPECT_GT(rep.energy_on_checkpoints_j, 0.0);
}

TEST(IntermittentTest, SolarNodeWorksDiurnally) {
  SolarHarvester::Params sp;
  sp.peak_power_w = 2e-3;
  const HarvesterModel sun = HarvesterModel::Solar(sp);
  IntermittentConfig cfg;
  const auto rep = SimulateIntermittent(sun, cfg, SimTime(), SimTime::Days(30));
  EXPECT_GT(rep.tasks_completed, 0u);
  // Energy conservation: spent cannot exceed harvested.
  EXPECT_LE(rep.energy_on_work_j + rep.energy_on_checkpoints_j + rep.energy_wasted_j,
            rep.energy_harvested_j + cfg.storage_j);
}

TEST(IntermittentTest, DegenerateThresholdsYieldNothing) {
  const HarvesterModel source = HarvesterModel::Constant(1e-3);
  IntermittentConfig cfg;
  cfg.turn_on_fraction = 0.2;
  cfg.brownout_fraction = 0.9;  // Inverted: budget <= 0.
  const auto rep = SimulateIntermittent(source, cfg, SimTime(), SimTime::Days(1));
  EXPECT_EQ(rep.bursts, 0u);
}

}  // namespace
}  // namespace centsim
