#include "src/energy/intermittent.h"

#include <algorithm>
#include <cassert>

namespace centsim {

IntermittentReport SimulateIntermittent(const HarvesterModel& harvester,
                                        const IntermittentConfig& cfg, SimTime from, SimTime to) {
  assert(to >= from);
  IntermittentReport rep;
  rep.span = to - from;

  const double turn_on_j = cfg.storage_j * cfg.turn_on_fraction;
  const double brownout_j = cfg.storage_j * cfg.brownout_fraction;
  const double burst_budget_j = turn_on_j - brownout_j;
  if (burst_budget_j <= 0) {
    return rep;
  }

  double stored = 0.0;
  double task_progress_j = 0.0;      // Work already banked toward the task.
  double unsaved_progress_j = 0.0;   // Work done since the last checkpoint.
  SimTime now = from;
  // Charging is stepped at 30-minute granularity (solar structure is
  // hour-scale); each burst then drains in one shot.
  const SimTime step = SimTime::Minutes(30);

  while (now < to) {
    // --- Charge phase ---
    while (stored < turn_on_j && now < to) {
      const SimTime next = std::min(now + step, to);
      const double in = harvester.EnergyOver(now, next);
      rep.energy_harvested_j += in;
      stored = std::min(cfg.storage_j, stored + in);
      now = next;
    }
    if (stored < turn_on_j) {
      break;  // Ran out of simulated time while charging.
    }

    // --- Execute phase: spend down to brownout ---
    ++rep.bursts;
    double budget = burst_budget_j;
    if (!cfg.checkpointing_enabled) {
      // Progress from previous bursts is lost.
      rep.energy_wasted_j += task_progress_j;
      task_progress_j = 0.0;
    }
    while (budget > 1e-12) {
      const double work_needed = cfg.task_energy_j - task_progress_j;
      const double next_chunk =
          cfg.checkpointing_enabled
              ? std::min({budget, work_needed, cfg.checkpoint_interval_j - unsaved_progress_j})
              : std::min(budget, work_needed);
      task_progress_j += next_chunk;
      unsaved_progress_j += next_chunk;
      rep.energy_on_work_j += next_chunk;
      budget -= next_chunk;

      if (task_progress_j >= cfg.task_energy_j - 1e-12) {
        ++rep.tasks_completed;
        task_progress_j = 0.0;
        unsaved_progress_j = 0.0;
        continue;
      }
      if (cfg.checkpointing_enabled && unsaved_progress_j >= cfg.checkpoint_interval_j - 1e-12) {
        if (budget >= cfg.checkpoint_energy_j) {
          budget -= cfg.checkpoint_energy_j;
          rep.energy_on_checkpoints_j += cfg.checkpoint_energy_j;
          unsaved_progress_j = 0.0;
        } else {
          break;  // Cannot afford the checkpoint; stop here.
        }
      }
      if (next_chunk <= 1e-15) {
        break;
      }
    }
    // Brown-out: unsaved progress is lost.
    rep.energy_wasted_j += unsaved_progress_j;
    task_progress_j -= unsaved_progress_j;
    rep.energy_on_work_j -= unsaved_progress_j;
    unsaved_progress_j = 0.0;
    stored = brownout_j;
    // Execution time is negligible next to charge time at these power
    // levels (ms vs minutes), so the clock does not advance here.
  }
  return rep;
}

}  // namespace centsim
