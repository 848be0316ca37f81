// Golden determinism tests for the event core.
//
// The scheduler's ordering contract — (time, schedule order), same seed ⇒
// bit-identical outputs — is what makes century-scale ensembles
// reproducible. These tests pin a digest of full experiment outputs
// (metrics.jsonl text plus headline report fields, rendered as hexfloat)
// captured from the seed std::function/priority_queue scheduler; the
// allocation-free slot/generation event core must reproduce every byte.
//
// If a PR *intentionally* changes simulation behaviour (new mechanism, RNG
// reordering), re-capture the constants below by running with
// --gtest_also_run_disabled_tests=0 and copying the printed digests. A PR
// that only claims to change scheduler *performance* must not touch them.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>

#include "src/core/experiment.h"
#include "src/core/montecarlo.h"
#include "src/sim/metrics.h"
#include "src/telemetry/metrics_jsonl.h"
#include "src/telemetry/run_manifest.h"

namespace centsim {
namespace {

// Digests captured from the seed scheduler (pre event-core), commit
// 9ba657e, seed 20260806. The fifty-year digest was re-pinned once, when the
// detailed engines' harvest became the closed-form integral: only the two
// energy.harvest_j lines of its metrics.jsonl moved.
constexpr const char* kGoldenFiftyYearDigest = "f0fe6a9618239d6d";
constexpr const char* kGoldenEnsembleDigest = "a5985ca18db33a95";

FiftyYearConfig GoldenConfig() {
  FiftyYearConfig cfg;
  cfg.seed = 20260806;
  cfg.devices_802154 = 3;
  cfg.devices_lora = 3;
  cfg.owned_gateways = 2;
  cfg.helium_hotspots = 3;
  cfg.report_interval = SimTime::Hours(12);
  cfg.horizon = SimTime::Years(50);
  return cfg;
}

// Folds a full fifty-year run into one digest: the complete metrics.jsonl
// text plus the headline report fields in hexfloat (bit-exact rendering).
std::string FiftyYearDigest() {
  FiftyYearConfig cfg = GoldenConfig();
  MetricsRegistry registry;
  cfg.metrics = &registry;
  const FiftyYearReport report = RunFiftyYearExperiment(cfg);
  std::ostringstream out;
  WriteMetricsJsonl(registry, out);
  out << std::hexfloat << report.weekly_uptime << '|' << report.longest_gap_weeks << '|'
      << report.total_packets << '|' << report.device_failures << '|'
      << report.device_replacements << '|' << report.owned_gateway_failures << '|'
      << report.hotspot_failures << '|' << report.maintenance_repairs << '|'
      << report.maintenance_hours << '|' << report.maintenance_cost_usd << '|'
      << report.credits_spent << '|' << report.credits_refused << '|' << report.auth_rejected
      << '|' << report.replay_rejected;
  return ConfigDigest(out.str());
}

std::string EnsembleDigest(uint32_t threads) {
  FiftyYearConfig base = GoldenConfig();
  base.horizon = SimTime::Years(5);  // Eight 5-year replicas stay quick.
  EnsembleOptions options;
  options.replicas = 8;
  options.threads = threads;
  const FiftyYearEnsemble ens =
      AggregateFiftyYear(EnsembleRunner<FiftyYearExperiment>::Run(base, options).replicas, 0.95);
  std::ostringstream out;
  out << std::hexfloat;
  for (double v : ens.weekly_uptime.values()) {
    out << v << '\n';
  }
  for (double v : ens.helium_path_uptime.values()) {
    out << v << '\n';
  }
  for (double v : ens.longest_gap_weeks.values()) {
    out << v << '\n';
  }
  out << ens.device_failures.mean() << '|' << ens.device_failures.variance() << '|'
      << ens.maintenance_hours.mean() << '|' << ens.credits_spent.mean() << '|'
      << ens.runs_meeting_weekly_goal << '|' << ens.runs_helium_path_died;
  return ConfigDigest(out.str());
}

TEST(GoldenDigestTest, FiftyYearOutputMatchesSeedScheduler) {
  const std::string digest = FiftyYearDigest();
  std::printf("golden fifty-year digest: %s\n", digest.c_str());
  EXPECT_EQ(digest, kGoldenFiftyYearDigest);
}

TEST(GoldenDigestTest, EnsembleOutputMatchesSeedSchedulerAtAnyThreadCount) {
  const std::string serial = EnsembleDigest(1);
  const std::string threaded = EnsembleDigest(3);
  std::printf("golden ensemble digest: %s\n", serial.c_str());
  EXPECT_EQ(serial, kGoldenEnsembleDigest);
  EXPECT_EQ(threaded, kGoldenEnsembleDigest);
}

}  // namespace
}  // namespace centsim
