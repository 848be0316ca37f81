// Intra-run parallel DES: shard ONE city across cores (ROADMAP item 1) and
// measure how wall clock scales with the lane count while the report stays
// bit-identical. Runs the 50-year district under the sharded engine at
// 1 / 2 / half-cores / all-cores lanes, checks digest equality across every
// shard and worker count (a determinism failure exits non-zero — this bench
// is a correctness gate first and a perf record second), and emits
// BENCH_shard_scale.json.
//
// Usage: bench_shard_scale [sites]. The default is 400,000 sites; any
// count keeps the density of 160 sites per km2. `hardware_threads` and the
// lane sweep count the CPUs this process may run on (its affinity mask),
// not the host's.
//
// tools/bench_smoke.sh guards the determinism records unconditionally and
// applies the >= 4x speedup floor only when `hardware_threads` in the fresh
// record is >= 8 — single-core CI boxes still verify correctness, the
// speedup claim is only checkable where the cores exist. The
// Bench.shard_scale_determinism ctest runs the determinism checks at
// 20,000 sites.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/district.h"
#include "src/sim/thread_pool.h"
#include "src/sim/time.h"
#include "src/telemetry/bench_record.h"
#include "src/telemetry/report.h"
#include "src/telemetry/run_manifest.h"

namespace centsim {
namespace {

using Clock = std::chrono::steady_clock;

DistrictConfig BenchConfig(uint32_t sites) {
  DistrictConfig cfg;
  cfg.seed = 20260806;
  cfg.device_count = sites;
  cfg.area_km2 = sites / 160.0;  // The constant-density rule: 160 sites per km2.
  cfg.zone_grid = 4;
  cfg.horizon = SimTime::Years(50);
  return cfg;
}

// Result-field digest (perf accounting excluded) — the same hexfloat idiom
// the golden parity pins use.
std::string Digest(const DistrictReport& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << r.gateway_count << '|' << r.initial_coverage << '|' << r.mean_device_availability
      << '|' << r.mean_service_availability << '|' << r.min_yearly_service << '|'
      << r.device_failures << '|' << r.device_replacements << '|' << r.gateway_failures
      << '|' << r.gateway_repairs;
  for (double v : r.yearly_service) {
    out << '|' << v;
  }
  return ConfigDigest(out.str());
}

struct Run {
  double wall = 0.0;
  std::string digest;
  uint64_t events = 0;
};

Run TimeRun(const DistrictConfig& base, uint32_t shards, uint32_t workers) {
  DistrictConfig cfg = base;
  cfg.shard.shards = shards;
  cfg.shard.workers = workers;
  const auto start = Clock::now();
  const DistrictReport r = RunDistrictScenario(cfg);
  Run out;
  out.wall = std::chrono::duration<double>(Clock::now() - start).count();
  out.digest = Digest(r);
  out.events = r.events_executed;
  return out;
}

}  // namespace
}  // namespace centsim

int main(int argc, char** argv) {
  using namespace centsim;
  const uint32_t sites = argc > 1 ? static_cast<uint32_t>(std::atol(argv[1])) : 400000;
  if (sites == 0) {
    std::cerr << "usage: bench_shard_scale [sites], with sites a positive count\n";
    return 2;
  }
  const uint32_t hw = ThreadPool::DefaultThreadCount();
  std::cout << "=== shard scale: one city of " << sites << " sites across " << hw
            << " hardware threads ===\n\n";

  const DistrictConfig cfg = BenchConfig(sites);
  BenchReport bench("shard_scale");
  bench.Add("hardware_threads", static_cast<double>(hw), "count");

  // Lane sweep: 1, 2, half the cores, all the cores (deduplicated).
  std::vector<uint32_t> shard_counts{1, 2, hw / 2, hw};
  std::sort(shard_counts.begin(), shard_counts.end());
  shard_counts.erase(std::unique(shard_counts.begin(), shard_counts.end()), shard_counts.end());
  shard_counts.erase(std::remove(shard_counts.begin(), shard_counts.end(), 0u),
                     shard_counts.end());

  Table t({"shards", "workers", "wall s", "speedup", "digest"});
  bool shard_determinism_ok = true;
  std::string reference_digest;
  double wall_one_shard = 0.0;
  double wall_full = 0.0;
  for (const uint32_t shards : shard_counts) {
    const Run r = TimeRun(cfg, shards, shards);
    if (reference_digest.empty()) {
      reference_digest = r.digest;
      wall_one_shard = r.wall;
    } else if (r.digest != reference_digest) {
      shard_determinism_ok = false;
    }
    if (shards == shard_counts.back()) {
      wall_full = r.wall;
    }
    const double speedup = wall_one_shard / std::max(r.wall, 1e-9);
    t.AddRow({FormatCount(shards), FormatCount(shards), FormatDouble(r.wall, 2),
              FormatDouble(speedup, 2), r.digest.substr(0, 8)});
    const std::string tag = std::to_string(shards);
    bench.Add("wall_seconds_shards_" + tag, r.wall, "s");
    bench.Add("events_per_sec_shards_" + tag, static_cast<double>(r.events) / r.wall, "1/s");
  }
  t.Print(std::cout);

  // Worker-count independence at a fixed lane count: the thread budget is a
  // pure wall-clock knob, never a result knob.
  const uint32_t probe_shards = std::max(2u, std::min(4u, hw));
  const Run serial_workers = TimeRun(cfg, probe_shards, 1);
  const Run full_workers = TimeRun(cfg, probe_shards, hw);
  const bool worker_determinism_ok = serial_workers.digest == full_workers.digest &&
                                     serial_workers.digest == reference_digest;

  const double speedup_full = wall_one_shard / std::max(wall_full, 1e-9);
  std::cout << "\nfull-core sweep: " << shard_counts.back() << " lanes, "
            << FormatDouble(speedup_full, 2) << "x vs 1 lane ("
            << FormatDouble(wall_one_shard, 2) << "s -> " << FormatDouble(wall_full, 2)
            << "s)\n";
  std::cout << "shard determinism: " << (shard_determinism_ok ? "ok" : "FAILED")
            << ", worker determinism: " << (worker_determinism_ok ? "ok" : "FAILED") << "\n";

  bench.Add("speedup_full_cores", speedup_full, "x");
  bench.Add("shard_determinism_ok", shard_determinism_ok ? 1.0 : 0.0, "bool");
  bench.Add("worker_determinism_ok", worker_determinism_ok ? 1.0 : 0.0, "bool");

  const std::string path = bench.WriteFile();
  if (!path.empty()) {
    std::cout << "\nWrote " << path << "\n";
  }
  // Determinism is the acceptance criterion that holds on every machine.
  return shard_determinism_ok && worker_determinism_ok ? 0 : 1;
}
