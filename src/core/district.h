// District-scale rollout scenario: the municipal composition of everything
// below the cloud tier. A district's sensor sites are deployed over real
// geometry; a gateway grid is planned from the radio range; devices fail
// on their hardware clocks and are replaced only by geographic batch
// projects (§1); gateways fail and are repaired by the municipal crew.
//
// The scored quantity is *service* availability — a site counts only while
// its device is alive AND at least one operational gateway covers it —
// which is how Figure 1's reliance structure shows up in a fleet metric:
// a dead gateway silences its whole cell no matter how healthy the
// devices are.

#ifndef SRC_CORE_DISTRICT_H_
#define SRC_CORE_DISTRICT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/shard_plan.h"
#include "src/core/theseus.h"
#include "src/mgmt/batch_project.h"
#include "src/sim/run_progress.h"
#include "src/sim/time.h"
#include "src/snapshot/snapshot_plan.h"

namespace centsim {

class MetricsRegistry;

struct DistrictConfig {
  uint64_t seed = 3;
  uint32_t device_count = 4000;
  double area_km2 = 25.0;
  uint32_t zone_grid = 4;  // Batch zones per side.
  SimTime horizon = SimTime::Years(50);
  // Gateway planning: grid spacing derived from this coverage range.
  double gateway_range_m = 900.0;
  SimTime gateway_repair_delay = SimTime::Days(14);
  // Device replacement rides the roadworks cadence.
  SimTime batch_cycle = SimTime::Years(8);
  DeviceClassKind device_class = DeviceClassKind::kEnergyHarvesting;

  // Optional external registry. When set, the run binds fleet-level gauges
  // (alive devices, covered sites) and per-class counters to it; the
  // `metrics` hook also makes district ensembles metrics-capable (see
  // src/sim/ensemble.h). Never per-device label cardinality.
  MetricsRegistry* metrics = nullptr;

  // Live run-control attachments (heartbeat progress, flight recorder,
  // stall-snapshot slot) — wired per replica by EnsembleRunner when a
  // status_dir is configured; inert by default.
  RunControlHooks control;

  // Checkpoint/restore plan (src/snapshot). Structural fields above (seed,
  // device_count, area_km2, zone_grid, horizon, gateway_range_m,
  // batch_cycle, device_class) are pinned by the snapshot's structural
  // digest; policy fields (gateway_repair_delay) may differ between the
  // saving run and a resumed/branched run.
  SnapshotPlan snapshot;

  // Intra-run sharding (src/core/district_shard.cc). shards == 0 (default)
  // runs the serial engine — golden digests unchanged. shards > 0 runs the
  // city across that many independent lanes, each running the serial run's
  // model over its own site range and replaying every gateway's keyed
  // fail/repair timeline itself. Results are bit-identical across any
  // shards/workers choice, but (by design) differ from the serial engine's:
  // the lanes key per-entity RNG streams, where the serial engine keys its
  // draws by running counters in global event order. Sharded snapshots use
  // the "district-shard" experiment tag and restore under any shard count.
  ShardPlan shard;

  // Sampled time advance (src/sim/sampling.h, src/core/district_sampled.cc).
  // Default off runs the serial engine — golden digests unchanged. When on,
  // the run alternates measured detailed windows with a heap-merged
  // fast-forward walk over the same model; like the shard lanes it keys
  // per-entity RNG streams, so results agree with the serial engine in
  // distribution, not bit-for-bit. Mutually exclusive with sharding;
  // sampled district runs restore from serial checkpoints but do not write
  // checkpoints.
  SamplingPlan sampling;

  // Actionable diagnostics (empty = valid); RunDistrictScenario fails
  // fast on any diagnostic instead of running silently to garbage.
  std::vector<std::string> Validate() const;
};

struct DistrictReport {
  uint32_t gateway_count = 0;
  double initial_coverage = 0.0;          // Sites inside any gateway cell.
  double mean_device_availability = 0.0;  // Device alive.
  double mean_service_availability = 0.0; // Alive AND covered.
  double min_yearly_service = 1.0;
  std::vector<double> yearly_service;
  uint64_t device_failures = 0;
  uint64_t device_replacements = 0;
  uint64_t gateway_failures = 0;
  uint64_t gateway_repairs = 0;

  // Perf accounting (additive; excluded from parity digests).
  // Events run: zone visits, gateway transitions and unit failures, the
  // failures drained from the model's failure calendar included. A shard
  // lane runs its own copy of every visit and gateway transition; the
  // sampled engine counts its detailed windows' events only.
  uint64_t events_executed = 0;
  double wall_seconds = 0.0;           // sim.RunUntil only.
  double build_seconds = 0.0;          // Geometry + fleet construction.
  double fleet_bytes_per_device = 0.0; // SoA column bytes per slot.

  // Checkpoint accounting (excluded from parity digests).
  double restore_seconds = 0.0;        // 0 when the run started fresh.
  double save_seconds = 0.0;           // Total across checkpoints written.
  uint32_t checkpoints_written = 0;
  uint64_t last_checkpoint_bytes = 0;
  std::string last_checkpoint_path;

  // Sampled-engine accounting (all zero/default under the serial engine).
  bool sampled = false;
  uint32_t windows_measured = 0;
  int64_t sim_skipped_us = 0;           // Span covered by fast-forward.
  bool ci_converged = false;            // Every tracked metric met ci_target.
  std::vector<MetricCi> metric_cis;     // Per-metric window-mean intervals.

  // Availability lost to the gateway tier rather than the devices.
  double CoverageLoss() const {
    return mean_device_availability - mean_service_availability;
  }
};

// Dispatches to the sampled engine when config.sampling.enabled() and to
// the sharded engine when config.shard.enabled().
DistrictReport RunDistrictScenario(const DistrictConfig& config);

// The sharded engine directly (config.shard.shards must be > 0).
DistrictReport RunShardedDistrictScenario(const DistrictConfig& config);

// The sampled engine directly (config.sampling.mode must be kSampled).
// Detailed windows run the device/gateway/visit events on the real
// scheduler; between windows a heap-merged walk advances the same
// transitions in global time order (src/core/district_sampled.cc).
DistrictReport RunSampledDistrictScenario(const DistrictConfig& config);

}  // namespace centsim

#endif  // SRC_CORE_DISTRICT_H_
