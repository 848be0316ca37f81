// The paper's §4 experiment, in simulated time: energy-harvesting
// transmit-only devices on two paths —
//   (a) "owned infrastructure": 802.15.4 devices -> our gateways -> campus
//       backhaul, maintained by a budgeted crew;
//   (b) "third-party infrastructure": LoRa devices -> Helium hotspots we do
//       not control -> opaque backhaul, prepaid with a $5 data-credit
//       wallet per device;
// both terminating at one public endpoint whose domain must be re-leased
// every <=10 years. Devices are never touched while alive; failed units are
// documented, diagnosed, and replaced (the living-study rule of §4.4).

#ifndef SRC_CORE_EXPERIMENT_H_
#define SRC_CORE_EXPERIMENT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/hierarchy.h"
#include "src/core/network_fabric.h"
#include "src/mgmt/diary.h"
#include "src/mgmt/maintenance.h"
#include "src/net/packet.h"
#include "src/reliability/survival.h"
#include "src/sim/metrics.h"
#include "src/sim/profiler.h"
#include "src/sim/run_progress.h"
#include "src/sim/time.h"

namespace centsim {

struct FiftyYearConfig {
  uint64_t seed = 42;
  uint32_t devices_802154 = 8;
  uint32_t devices_lora = 8;
  uint32_t owned_gateways = 2;
  uint32_t helium_hotspots = 5;
  SimTime report_interval = SimTime::Hours(1);
  SimTime horizon = SimTime::Years(50);
  double wallet_usd_per_device = 5.0;  // §4.4: $5 buys 500k credits.
  MaintenancePolicy maintenance;       // Owned-gateway upkeep.
  bool replace_failed_devices = true;  // §4.4 living-study rule.
  SimTime device_replacement_delay = SimTime::Days(30);
  double area_side_m = 2500.0;         // Campus-scale deployment square.
  // Third-party hotspot churn: chance a dead hotspot's owner replaces it,
  // and how long that takes. This is the "risk" half of §4.2's hedge.
  double hotspot_replacement_prob = 0.7;
  SimTime hotspot_replacement_mean = SimTime::Days(60);

  // Radio-medium fidelity knobs (grid-bucketed neighbor lookups, SIR
  // capture, LoRa CAD) and the receive class for the LoRa cohort. The
  // defaults reproduce the legacy medium bit-for-bit; class B arms the
  // fabric's beacon timer, class C raises the sleep floor.
  MediumConfig medium;
  LoraDeviceClass lora_device_class = LoraDeviceClass::kClassA;

  // --- Observability (all optional) ---
  // External registry/profiler to attach; when null but `artifacts_dir` is
  // set, the run creates its own so the artifacts are still complete.
  MetricsRegistry* metrics = nullptr;
  SchedulerProfiler* profiler = nullptr;
  // When non-empty, the run writes manifest.json, metrics.jsonl, and
  // trace.json (Chrome trace-event / Perfetto) into this directory.
  std::string artifacts_dir;
  std::string run_name = "fifty_year";
  // Live run-control attachments (progress cell, flight recorder,
  // scheduler slot, profiler) — normally wired per replica by
  // EnsembleRunner; inert by default. An explicit `profiler` above takes
  // precedence over `control.profiler`.
  RunControlHooks control;
  // When positive (and artifacts_dir is set), metrics.jsonl is atomically
  // re-flushed every this much simulated time, so a killed run leaves
  // recent telemetry behind instead of nothing. Off by default: the flush
  // events consume scheduler sequence numbers, which can perturb
  // same-timestamp tie order relative to an unflushed run.
  SimTime telemetry_flush_period;

  // Actionable diagnostics for configs that cannot produce a meaningful
  // run (no devices, non-positive horizon, report interval beyond the
  // horizon...). Empty means valid; RunFiftyYearExperiment fails fast on
  // any diagnostic instead of running silently to a garbage report.
  std::vector<std::string> Validate() const;
};

// Per-path (per-radio-technology) results.
struct PathStats {
  uint32_t device_count = 0;
  double group_weekly_uptime = 0.0;       // Any device heard this week.
  double mean_device_weekly_uptime = 0.0;
  uint64_t attempts = 0;
  uint64_t delivered = 0;
  std::array<uint64_t, kDeliveryOutcomeCount> outcomes{};

  double DeliveryRate() const {
    return attempts > 0 ? static_cast<double>(delivered) / attempts : 0.0;
  }
};

struct FiftyYearReport {
  // Headline metric (§4): weekly end-to-end uptime at the endpoint.
  double weekly_uptime = 0.0;
  uint64_t longest_gap_weeks = 0;
  uint64_t total_packets = 0;

  PathStats owned_path;   // 802.15.4 through owned gateways.
  PathStats helium_path;  // LoRa through Helium hotspots.

  std::array<uint64_t, kTierCount> tier_attribution{};

  uint64_t device_failures = 0;
  uint64_t device_replacements = 0;
  uint32_t owned_gateway_failures = 0;
  uint32_t hotspot_failures = 0;

  uint64_t maintenance_repairs = 0;
  uint64_t maintenance_refused = 0;
  double maintenance_hours = 0.0;
  double maintenance_cost_usd = 0.0;

  uint64_t credits_provisioned = 0;
  uint64_t credits_spent = 0;
  uint64_t credits_refused = 0;

  uint32_t domain_renewals = 0;
  uint32_t domain_lapses = 0;

  // Frame-authentication outcomes at the endpoint (every device signs).
  uint64_t auth_rejected = 0;
  uint64_t replay_rejected = 0;

  // Experimenter succession over the horizon (§4.5).
  uint32_t custodian_handovers = 0;
  double final_knowledge = 1.0;

  // LoRaWAN network-server statistics (Helium path).
  uint64_t frames_deduplicated = 0;
  double mean_witnesses = 0.0;

  KaplanMeier device_survival;
  std::vector<DecadeSummary> diary_decades;
  std::vector<DiaryEntry> diary_entries;

  uint64_t events_executed = 0;
  double wall_seconds = 0.0;

  // Paths written when FiftyYearConfig::artifacts_dir was set (else empty).
  std::string manifest_path;
  std::string metrics_path;
  std::string trace_path;
};

FiftyYearReport RunFiftyYearExperiment(const FiftyYearConfig& config);

}  // namespace centsim

#endif  // SRC_CORE_EXPERIMENT_H_
