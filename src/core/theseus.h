// The Ship-of-Theseus century scenario (paper §1, §3.4).
//
// "The lifetime of a sensing system is the aggregate lifetime of all of its
// devices across all their deployments. Constituent device lifetimes are
// pipelined ... even if it is unlikely for any one device to last multiple
// decades, it is both reasonable and likely for municipal-scale systems to
// last for decades."
//
// A fleet of sites is deployed across geographic zones. Devices fail on
// their hardware clocks; failed devices are only replaced when the next
// geographic batch project reaches their zone (en-masse dispatch being
// intractable). The scenario tracks aggregate fleet availability over a
// century — the quantity that must stay high even though no individual
// unit survives.

#ifndef SRC_CORE_THESEUS_H_
#define SRC_CORE_THESEUS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/mgmt/batch_project.h"
#include "src/reliability/component.h"
#include "src/reliability/survival.h"
#include "src/sim/run_progress.h"
#include "src/sim/sampling.h"
#include "src/sim/time.h"
#include "src/snapshot/snapshot_plan.h"

namespace centsim {

enum class DeviceClassKind : uint8_t {
  kBatteryPowered,
  kEnergyHarvesting,
};

struct CenturyConfig {
  uint64_t seed = 7;
  uint32_t fleet_size = 5000;
  SimTime horizon = SimTime::Years(100);
  DeviceClassKind device_class = DeviceClassKind::kEnergyHarvesting;
  BatchProjectParams batch;  // Zone refresh cadence.
  // Proactive refresh: during a zone visit, also replace working units
  // older than this (0 disables). Models "some deployments replace their
  // sensors with state-of-the-art technologies" on the project cadence.
  SimTime proactive_refresh_age = SimTime();
  // Units installed in later batches last longer by this factor per decade
  // (technology improvement across generations). 1.0 = no improvement.
  double life_improvement_per_decade = 1.0;

  // Live run-control attachments (heartbeat progress, flight recorder,
  // stall-snapshot slot) — wired per replica by EnsembleRunner when a
  // status_dir is configured; inert by default.
  RunControlHooks control;

  // Checkpoint/restore plan (src/snapshot). Structural fields (seed,
  // fleet_size, horizon, device_class, batch cadence) are pinned by the
  // snapshot's structural digest; policy fields (proactive_refresh_age,
  // life_improvement_per_decade) may differ between the saving run and a
  // resumed/branched run.
  SnapshotPlan snapshot;

  // Sampled time advance (src/sim/sampling.h, src/core/theseus_sampled.cc).
  // Default off runs the serial engine — golden digests unchanged. When
  // sampling.mode == kSampled the run alternates measured detailed windows
  // with analytic fast-forward and reports paper metrics with confidence
  // intervals. The sampled engine walks the fleet in blocks of consecutive
  // sites on the spare cores.
  SamplingPlan sampling;

  // Actionable diagnostics (empty = valid); RunCenturyScenario fails
  // fast on any diagnostic instead of running silently to garbage.
  std::vector<std::string> Validate() const;
};

struct CenturyReport {
  double mean_availability = 0.0;       // Time-averaged fleet availability.
  double min_yearly_availability = 1.0;
  std::vector<double> yearly_availability;  // One entry per year.
  uint64_t total_failures = 0;
  uint64_t total_replacements = 0;
  uint64_t proactive_replacements = 0;
  uint64_t units_deployed = 0;          // Across all generations.
  KaplanMeier unit_survival;
  double max_unit_generations = 0.0;    // Highest generation count a site saw.
  uint64_t events_executed = 0;

  // Checkpoint accounting (excluded from parity digests).
  double restore_seconds = 0.0;         // 0 when the run started fresh.
  double save_seconds = 0.0;            // Total across checkpoints written.
  uint32_t checkpoints_written = 0;
  uint64_t last_checkpoint_bytes = 0;
  std::string last_checkpoint_path;

  // Sampled-engine accounting (all zero/default under the serial engine).
  bool sampled = false;
  uint32_t windows_measured = 0;
  int64_t sim_skipped_us = 0;           // Span covered by fast-forward.
  bool ci_converged = false;            // Every tracked metric met ci_target.
  std::vector<MetricCi> metric_cis;     // Per-metric window-mean intervals.
};

// Dispatches to the sampled engine when config.sampling.enabled(), and
// else runs the serial engine: the detailed driver over the whole fleet,
// one transition at a time (DetailedCentury, century_model.h).
CenturyReport RunCenturyScenario(const CenturyConfig& config);

}  // namespace centsim

#endif  // SRC_CORE_THESEUS_H_
