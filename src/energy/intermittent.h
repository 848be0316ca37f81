// Intermittent-computing progress model.
//
// Batteryless nodes execute in bursts: charge to a turn-on threshold, run
// until brown-out, checkpoint, repeat. This model answers "how much useful
// work completes per day" for a task pipeline under a given harvester,
// including checkpoint overhead and re-execution waste — the runtime story
// behind century-scale devices that are off most of the time.

#ifndef SRC_ENERGY_INTERMITTENT_H_
#define SRC_ENERGY_INTERMITTENT_H_

#include <cstdint>

#include "src/energy/harvester.h"
#include "src/sim/time.h"

namespace centsim {

struct IntermittentConfig {
  double storage_j = 0.1;          // Cap-bank size.
  double turn_on_fraction = 0.9;   // Charge fraction that triggers a burst.
  double brownout_fraction = 0.2;  // Fraction where execution halts.
  double active_power_w = 3e-3;    // Power draw while executing.
  double task_energy_j = 0.020;    // Energy to finish one task end-to-end.
  double checkpoint_energy_j = 0.001;  // Cost to persist progress.
  double checkpoint_interval_j = 0.005;  // Energy of work between checkpoints.
  bool checkpointing_enabled = true;   // false => restart task each burst.
};

struct IntermittentReport {
  uint64_t bursts = 0;
  uint64_t tasks_completed = 0;
  double energy_harvested_j = 0.0;
  double energy_on_work_j = 0.0;        // Retired, useful work.
  double energy_on_checkpoints_j = 0.0;
  double energy_wasted_j = 0.0;         // Re-executed work lost to brownouts.
  SimTime span;

  double TasksPerDay() const {
    const double days = span.ToDays();
    return days > 0 ? static_cast<double>(tasks_completed) / days : 0.0;
  }
  double Efficiency() const {
    const double spent = energy_on_work_j + energy_on_checkpoints_j + energy_wasted_j;
    return spent > 0 ? energy_on_work_j / spent : 0.0;
  }
};

// Simulates charge/execute cycles over [from, to] against the harvester's
// deterministic profile. Pure function of its inputs.
IntermittentReport SimulateIntermittent(const HarvesterModel& harvester,
                                        const IntermittentConfig& cfg, SimTime from, SimTime to);

}  // namespace centsim

#endif  // SRC_ENERGY_INTERMITTENT_H_
