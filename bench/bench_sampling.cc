// Sampled simulation engine: century-scale speedup and fidelity gate
// (ROADMAP item 2). Runs the Ship-of-Theseus century once under the serial
// detailed engine and once under the sampled engine (measured detailed
// windows + analytic/walked fast-forward), then reports the wall-clock
// speedup and the relative error of every paper metric.
//
// This bench is a correctness gate first and a perf record second:
// tools/bench_smoke.sh fails the build if the sampled engine is less than
// 10x faster than detailed on this workload or if any metric drifts more
// than 1%. The sampled engine walks this fleet's 4 blocks on the spare
// cores, but pinned to one CPU it still clears the floor (13-18x on a
// 4-CPU host), so the gate applies on every machine, single-core CI boxes
// included.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>

#include "src/core/theseus.h"
#include "src/sim/sampling.h"
#include "src/sim/time.h"
#include "src/telemetry/bench_record.h"
#include "src/telemetry/report.h"

namespace centsim {
namespace {

using Clock = std::chrono::steady_clock;

CenturyConfig BenchConfig() {
  CenturyConfig cfg;
  cfg.seed = 20260808;
  cfg.fleet_size = 200000;
  cfg.horizon = SimTime::Years(100);
  cfg.batch.zone_count = 16;
  // Thrice-weekly service rounds (the cadence of municipal waste routes,
  // which the Seoul study piggybacks sensors on): the detailed engine pays
  // a fleet scan per zone visit, which is exactly the per-event work the
  // sampled engine's fast-forward skips.
  cfg.batch.cycle_period = SimTime::Days(3);
  cfg.device_class = DeviceClassKind::kEnergyHarvesting;
  return cfg;
}

struct Run {
  double wall = 0.0;
  CenturyReport report;
};

Run TimeRun(const CenturyConfig& cfg) {
  const auto start = Clock::now();
  Run out;
  out.report = RunCenturyScenario(cfg);
  out.wall = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

double RelErr(double sampled, double detailed) {
  return detailed != 0.0 ? std::fabs(sampled - detailed) / std::fabs(detailed) : 0.0;
}

}  // namespace
}  // namespace centsim

int main() {
  using namespace centsim;
  const CenturyConfig base = BenchConfig();
  std::cout << "=== sampled vs detailed: " << base.fleet_size << " sites, "
            << base.horizon.ToYears() << " years ===\n\n";

  BenchReport bench("sampling");
  bench.Add("fleet_size", static_cast<double>(base.fleet_size), "count");

  const Run detailed = TimeRun(base);

  CenturyConfig sampled_cfg = base;
  sampled_cfg.sampling.mode = SimMode::kSampled;
  sampled_cfg.sampling.detailed_window = SimTime::Days(7);
  sampled_cfg.sampling.sample_period = SimTime::Days(70);
  sampled_cfg.sampling.ci_target = 0.01;
  sampled_cfg.sampling.min_windows = 8;
  // The replacement metric is zone-visit bursty, so its window CI converges
  // slowly; cap the measured windows — the walked fast-forward is
  // trajectory-exact, so capping costs variance headroom, not accuracy.
  sampled_cfg.sampling.max_windows = 16;
  const Run sampled = TimeRun(sampled_cfg);

  const double device_years =
      static_cast<double>(base.fleet_size) * base.horizon.ToYears();
  const double det_fail_rate = static_cast<double>(detailed.report.total_failures) / device_years;
  const double smp_fail_rate = static_cast<double>(sampled.report.total_failures) / device_years;
  const double det_repl_rate =
      static_cast<double>(detailed.report.total_replacements) / device_years;
  const double smp_repl_rate =
      static_cast<double>(sampled.report.total_replacements) / device_years;

  const double speedup = detailed.wall / std::max(sampled.wall, 1e-9);
  const double avail_err =
      RelErr(sampled.report.mean_availability, detailed.report.mean_availability);
  const double fail_err = RelErr(smp_fail_rate, det_fail_rate);
  const double repl_err = RelErr(smp_repl_rate, det_repl_rate);
  const double skipped_fraction =
      static_cast<double>(sampled.report.sim_skipped_us) / base.horizon.micros();

  Table t({"engine", "wall s", "avail", "fail/dev-yr", "repl/dev-yr", "events"});
  t.AddRow({"detailed", FormatDouble(detailed.wall, 2),
            FormatDouble(detailed.report.mean_availability, 5), FormatDouble(det_fail_rate, 5),
            FormatDouble(det_repl_rate, 5), FormatCount(detailed.report.events_executed)});
  t.AddRow({"sampled", FormatDouble(sampled.wall, 2),
            FormatDouble(sampled.report.mean_availability, 5), FormatDouble(smp_fail_rate, 5),
            FormatDouble(smp_repl_rate, 5), FormatCount(sampled.report.events_executed)});
  t.Print(std::cout);

  std::cout << "\nspeedup: " << FormatDouble(speedup, 1) << "x ("
            << FormatDouble(detailed.wall, 2) << "s -> " << FormatDouble(sampled.wall, 2)
            << "s), windows measured: " << sampled.report.windows_measured
            << ", fast-forwarded: " << FormatDouble(100.0 * skipped_fraction, 1)
            << "% of horizon, ci_converged: " << (sampled.report.ci_converged ? "yes" : "no")
            << "\n";
  std::cout << "relative error: availability " << FormatDouble(100.0 * avail_err, 3)
            << "%, failure rate " << FormatDouble(100.0 * fail_err, 3) << "%, replacement rate "
            << FormatDouble(100.0 * repl_err, 3) << "%\n";
  for (const MetricCi& ci : sampled.report.metric_cis) {
    std::cout << "  window CI " << ci.name << ": " << FormatDouble(ci.mean, 5) << " +/- "
              << FormatDouble(ci.ci_half_width, 5) << " (" << ci.windows << " windows)\n";
  }

  bench.Add("wall_seconds_detailed", detailed.wall, "s");
  bench.Add("wall_seconds_sampled", sampled.wall, "s");
  bench.Add("events_per_sec_detailed",
            static_cast<double>(detailed.report.events_executed) / detailed.wall, "1/s");
  bench.Add("speedup_sampled", speedup, "x");
  bench.Add("availability_rel_err", avail_err, "frac");
  bench.Add("failure_rate_rel_err", fail_err, "frac");
  bench.Add("replacement_rate_rel_err", repl_err, "frac");
  bench.Add("windows_measured", static_cast<double>(sampled.report.windows_measured), "count");
  bench.Add("skipped_fraction", skipped_fraction, "frac");
  bench.Add("ci_converged", sampled.report.ci_converged ? 1.0 : 0.0, "bool");

  const std::string path = bench.WriteFile();
  if (!path.empty()) {
    std::cout << "\nWrote " << path << "\n";
  }
  // The acceptance gate, enforced here as well as in bench_smoke.sh.
  const bool ok = speedup >= 10.0 && avail_err <= 0.01 && fail_err <= 0.01 && repl_err <= 0.01;
  if (!ok) {
    std::cerr << "sampling gate FAILED: speedup " << speedup << "x, errors " << avail_err << "/"
              << fail_err << "/" << repl_err << "\n";
  }
  return ok ? 0 : 1;
}
