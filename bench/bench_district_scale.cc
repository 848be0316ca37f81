// P2 — fleet-core scale: how far the struct-of-arrays district engine
// stretches before the object-graph-per-node design (the iFogSim wall the
// paper's tooling section warns about) would have fallen over. Runs the
// 50-year district scenario at 10k, 100k and 1M sensor sites, and — at the
// sizes where it is still affordable — replays the same configuration
// through a replica of the pre-fleet object-graph implementation to verify
// report parity and measure the speedup.
//
// Emits BENCH_district_scale.json; tools/bench_smoke.sh guards the
// throughput records against >20% regressions, the 100k speedup floor and
// the per-device memory budget.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/city/deployment.h"
#include "src/core/device.h"
#include "src/core/district.h"
#include "src/core/site_seconds.h"
#include "src/energy/harvester.h"
#include "src/energy/storage.h"
#include "src/mgmt/batch_project.h"
#include "src/net/packet.h"
#include "src/reliability/component.h"
#include "src/sim/metrics.h"
#include "src/sim/simulation.h"
#include "src/telemetry/bench_record.h"
#include "src/telemetry/report.h"

namespace centsim {
namespace {

double ReadRssMb() {
#ifdef __linux__
  FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) {
    return 0.0;
  }
  char line[256];
  double rss_kb = 0.0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      rss_kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return rss_kb / 1024.0;
#else
  return 0.0;
#endif
}

// Replica of the pre-fleet entity tier: one heap object graph per device,
// the way `EdgeDevice` used to be built — a per-unit config copy with its
// own name string, a per-unit hardware BOM copy, a heap-allocated harvester,
// per-device metric instrument binding, and a `std::function` failure
// callback re-armed on every deployment — wired with the seed
// district's O(devices x gateways) coverage pass and O(devices) zone
// scans. The availability logic and RNG derivations are kept verbatim, and
// availability integrates through the model's exact integer integral
// (SiteSeconds), so its report must match RunDistrictScenario bit for bit —
// the parity check below fails the bench if it does not.
DistrictReport RunObjectGraphDistrict(const DistrictConfig& config, double* build_seconds,
                                      double* run_seconds) {
  using Clock = std::chrono::steady_clock;
  const auto build_start = Clock::now();
  struct ObjectGraphDevice {
    explicit ObjectGraphDevice(EnergyStorage s) : storage(std::move(s)) {}
    EdgeDeviceConfig cfg;                   // Per-unit copy (id, name, radio params).
    SeriesSystem hardware;                  // Per-unit BOM copy, not shared.
    std::unique_ptr<HarvesterModel> harvester;  // One heap allocation per device.
    EnergyStorage storage;
    LoadProfile load;                       // Per-unit airtime math, not per class.
    Counter* failures = nullptr;
    Counter* replacements = nullptr;
    Counter* granted = nullptr;
    Counter* denied = nullptr;
    HistogramMetric* harvest = nullptr;
    std::function<void(SimTime)> on_failure;  // Re-armed each deployment.
    bool alive = false;
    uint32_t covering_operational = 0;
    uint32_t zone = 0;
  };
  struct GatewayState {
    bool operational = false;
    std::vector<uint32_t> covered_devices;
  };

  Simulation sim(config.seed);
  sim.trace().EnableRetention(false);
  MetricsRegistry registry;
  sim.SetMetrics(&registry);
  DistrictReport report;

  DeploymentPlan::Params dp;
  dp.site_count = config.device_count;
  dp.area_km2 = config.area_km2;
  dp.zone_grid = config.zone_grid;
  DeploymentPlan plan(dp, sim.StreamFor(0x646973740001ULL));
  const auto gateway_sites = plan.PlanGatewayGrid(config.gateway_range_m);
  report.gateway_count = static_cast<uint32_t>(gateway_sites.size());

  const SeriesSystem device_bom_proto = config.device_class == DeviceClassKind::kBatteryPowered
                                            ? SeriesSystem::BatteryPoweredNode()
                                            : SeriesSystem::EnergyHarvestingNode();
  std::vector<std::unique_ptr<ObjectGraphDevice>> devices;
  devices.reserve(config.device_count);
  for (uint32_t d = 0; d < config.device_count; ++d) {
    auto node = std::make_unique<ObjectGraphDevice>(EnergyStorage::Supercap());
    node->cfg.id = d;
    node->cfg.name = "site-" + std::to_string(d);
    node->cfg.tech = RadioTech::kLoRa;
    node->hardware = device_bom_proto;
    node->harvester =
        std::make_unique<HarvesterModel>(HarvesterModel::Solar(SolarHarvester::Params{}));
    node->load = LoadProfileFor(node->cfg);
    const MetricLabels labels{{"tech", RadioTechName(node->cfg.tech)}};
    node->failures = sim.MetricCounter("device.failures", labels);
    node->replacements = sim.MetricCounter("device.replacements", labels);
    node->denied = sim.MetricCounter("energy.tx_denied", labels);
    node->granted = sim.MetricCounter("energy.tx_granted", labels);
    node->harvest = sim.MetricHistogram("energy.harvest_j", labels);
    node->zone = plan.sites()[d].zone;
    devices.push_back(std::move(node));
  }
  std::vector<GatewayState> gateways(gateway_sites.size());
  for (uint32_t d = 0; d < config.device_count; ++d) {
    for (uint32_t g = 0; g < gateway_sites.size(); ++g) {
      if (DistanceM(plan.sites()[d], gateway_sites[g]) <= config.gateway_range_m) {
        gateways[g].covered_devices.push_back(d);
      }
    }
  }
  std::vector<uint8_t> planned_cover(config.device_count, 0);
  for (const auto& gw : gateways) {
    for (uint32_t d : gw.covered_devices) {
      planned_cover[d] = 1;
    }
  }
  uint32_t covered_at_all = 0;
  for (uint8_t c : planned_cover) {
    covered_at_all += c;
  }
  report.initial_coverage = static_cast<double>(covered_at_all) / config.device_count;

  const SeriesSystem gateway_bom = SeriesSystem::RaspberryPiGateway();
  RandomStream rng = sim.StreamFor(0x646973740002ULL);

  uint64_t alive_count = 0;
  uint64_t service_count = 0;
  SiteSeconds alive_seconds(config.horizon);
  SiteSeconds service_seconds(config.horizon);

  auto in_service = [&](uint32_t d) {
    return devices[d]->alive && devices[d]->covering_operational > 0;
  };
  auto accumulate_to = [&](SimTime now) {
    alive_seconds.AdvanceTo(now, static_cast<int64_t>(alive_count));
    service_seconds.AdvanceTo(now, static_cast<int64_t>(service_count));
  };

  std::function<void(uint32_t, bool)> set_gateway = [&](uint32_t g, bool up) {
    if (gateways[g].operational == up) {
      return;
    }
    accumulate_to(sim.Now());
    gateways[g].operational = up;
    for (uint32_t d : gateways[g].covered_devices) {
      const bool was = in_service(d);
      devices[d]->covering_operational += up ? 1 : -1;
      const bool is = in_service(d);
      if (was && !is) {
        --service_count;
      } else if (!was && is) {
        ++service_count;
      }
    }
  };

  std::function<void(uint32_t)> schedule_gateway_failure = [&](uint32_t g) {
    RandomStream gw_rng = rng.Derive(0x67770000ULL + g * 131 + report.gateway_failures);
    const SimTime life = gateway_bom.SampleLife(gw_rng).life;
    sim.scheduler().ScheduleAfter(life, [&, g] {
      ++report.gateway_failures;
      set_gateway(g, false);
      sim.scheduler().ScheduleAfter(config.gateway_repair_delay, [&, g] {
        ++report.gateway_repairs;
        set_gateway(g, true);
        schedule_gateway_failure(g);
      });
    });
  };

  std::function<void(uint32_t)> deploy_device = [&](uint32_t d) {
    accumulate_to(sim.Now());
    ObjectGraphDevice& node = *devices[d];
    if (!node.alive) {
      ++alive_count;
      node.alive = true;
      if (in_service(d)) {
        ++service_count;
      }
    }
    RandomStream dev_rng =
        rng.Derive(0x64650000ULL + static_cast<uint64_t>(d) * 977 + report.device_replacements);
    // Life is drawn through this unit's own BOM copy, as the per-device
    // `EdgeDevice::ScheduleHardwareFailure` did.
    const SimTime life = node.hardware.SampleLife(dev_rng).life;
    node.on_failure = [&, d](SimTime now) {
      accumulate_to(now);
      if (in_service(d)) {
        --service_count;
      }
      devices[d]->alive = false;
      --alive_count;
      ++report.device_failures;
      MetricInc(devices[d]->failures);
    };
    sim.scheduler().ScheduleAfter(life, [&, d] { devices[d]->on_failure(sim.Now()); });
  };

  BatchProjectParams batch;
  batch.zone_count = config.zone_grid * config.zone_grid;
  batch.cycle_period = config.batch_cycle;
  std::function<void(uint32_t)> visit_zone = [&](uint32_t zone) {
    for (uint32_t d = 0; d < config.device_count; ++d) {
      if (devices[d]->zone == zone && !devices[d]->alive) {
        ++report.device_replacements;
        MetricInc(devices[d]->replacements);
        deploy_device(d);
      }
    }
  };
  for (const BatchVisit& v : BatchVisits(sim, batch, config.horizon)) {
    sim.scheduler().ScheduleAt(v.at, [&visit_zone, zone = v.zone] { visit_zone(zone); });
  }

  if (build_seconds) {
    *build_seconds = std::chrono::duration<double>(Clock::now() - build_start).count();
  }
  const auto run_start = Clock::now();
  for (uint32_t g = 0; g < gateways.size(); ++g) {
    set_gateway(g, true);
    schedule_gateway_failure(g);
  }
  for (uint32_t d = 0; d < config.device_count; ++d) {
    deploy_device(d);
  }

  sim.RunUntil(config.horizon);
  accumulate_to(config.horizon);
  if (run_seconds) {
    *run_seconds = std::chrono::duration<double>(Clock::now() - run_start).count();
  }

  report.mean_device_availability =
      SiteSeconds::Rate(alive_seconds.total, config.horizon, config.device_count);
  service_seconds.FillRates(config.horizon, config.device_count,
                            &report.mean_service_availability, &report.yearly_service,
                            &report.min_yearly_service);
  sim.SetMetrics(nullptr);
  return report;
}

bool ReportsMatch(const DistrictReport& a, const DistrictReport& b, std::string* why) {
  auto fail = [&](const std::string& field) {
    *why = field;
    return false;
  };
  if (a.gateway_count != b.gateway_count) return fail("gateway_count");
  if (a.initial_coverage != b.initial_coverage) return fail("initial_coverage");
  if (a.mean_device_availability != b.mean_device_availability)
    return fail("mean_device_availability");
  if (a.mean_service_availability != b.mean_service_availability)
    return fail("mean_service_availability");
  if (a.min_yearly_service != b.min_yearly_service) return fail("min_yearly_service");
  if (a.device_failures != b.device_failures) return fail("device_failures");
  if (a.device_replacements != b.device_replacements) return fail("device_replacements");
  if (a.gateway_failures != b.gateway_failures) return fail("gateway_failures");
  if (a.gateway_repairs != b.gateway_repairs) return fail("gateway_repairs");
  if (a.yearly_service != b.yearly_service) return fail("yearly_service");
  return true;
}

DistrictConfig ConfigFor(uint32_t devices) {
  DistrictConfig cfg;
  cfg.seed = 20260806;
  cfg.device_count = devices;
  // Constant density (the default 4000 / 25 km2 = 160 sites per km2), so
  // the gateway tier scales with the fleet instead of saturating.
  cfg.area_km2 = static_cast<double>(devices) / 160.0;
  cfg.zone_grid = 4;
  cfg.horizon = SimTime::Years(50);
  return cfg;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::string SizeTag(uint32_t devices) {
  if (devices % 1000000 == 0) return std::to_string(devices / 1000000) + "m";
  return std::to_string(devices / 1000) + "k";
}

}  // namespace
}  // namespace centsim

int main(int argc, char** argv) {
  using namespace centsim;
  using Clock = std::chrono::steady_clock;
  std::cout << "=== P2: district fleet core at scale ===\n\n";

  std::vector<uint32_t> sizes = {10000, 100000, 1000000};
  // Sizes small enough that replaying the object-graph replica is cheap.
  const uint32_t baseline_limit = 100000;
  if (argc > 1) {
    sizes.clear();
    for (int i = 1; i < argc; ++i) {
      sizes.push_back(static_cast<uint32_t>(std::atol(argv[i])));
    }
  }

  BenchReport bench("district_scale");
  Table t({"devices", "build Mdev/s", "run dev-yr/s", "events/s", "B/device", "RSS MB"});
  double fleet_total_100k = 0.0;
  double object_total_100k = 0.0;
  double speedup_100k = 0.0;
  uint32_t parity_checks = 0;

  for (uint32_t n : sizes) {
    DistrictConfig cfg = ConfigFor(n);
    const std::string tag = SizeTag(n);
    const bool with_baseline = n <= baseline_limit;

    // Both sides export metrics: the fleet binds per class, the
    // object-graph replica per device — that asymmetry is the design
    // difference under test, not a handicap.
    //
    // Paired rounds, median walls: each round runs the fleet core and the
    // object-graph replica back to back, so a machine-wide slowdown hits
    // both sides of a round and cancels out of the per-round speedup
    // ratio; the medians over rounds are what the regression gate guards
    // (the same scheme bench_p1_engine uses).
    const int rounds = n >= 1000000 ? 1 : 3;
    DistrictReport fleet;
    DistrictReport object_graph;
    std::vector<double> fleet_totals, fleet_builds, fleet_runs;
    std::vector<double> og_totals, og_builds, og_runs, ratios;
    for (int r = 0; r < rounds; ++r) {
      MetricsRegistry fleet_registry;
      cfg.metrics = &fleet_registry;
      const auto start = Clock::now();
      DistrictReport attempt = RunDistrictScenario(cfg);
      const double total = std::chrono::duration<double>(Clock::now() - start).count();
      fleet_totals.push_back(total);
      fleet_builds.push_back(attempt.build_seconds);
      fleet_runs.push_back(attempt.wall_seconds);
      if (r == 0) {
        fleet = std::move(attempt);
      }
      if (with_baseline) {
        double build = 0.0;
        double run = 0.0;
        const auto og_start = Clock::now();
        DistrictReport og_attempt = RunObjectGraphDistrict(cfg, &build, &run);
        const double og_total = std::chrono::duration<double>(Clock::now() - og_start).count();
        og_totals.push_back(og_total);
        og_builds.push_back(build);
        og_runs.push_back(run);
        ratios.push_back(og_total / std::max(total, 1e-9));
        if (r == 0) {
          object_graph = std::move(og_attempt);
        }
      }
    }
    const double fleet_total = Median(fleet_totals);
    fleet.build_seconds = Median(fleet_builds);
    fleet.wall_seconds = Median(fleet_runs);
    const double rss_mb = ReadRssMb();

    const double device_years = static_cast<double>(n) * cfg.horizon.ToYears();
    const double build_rate = n / std::max(fleet.build_seconds, 1e-9);
    const double run_rate = device_years / std::max(fleet.wall_seconds, 1e-9);
    const double event_rate =
        static_cast<double>(fleet.events_executed) / std::max(fleet.wall_seconds, 1e-9);

    t.AddRow({FormatCount(n), FormatDouble(build_rate / 1e6, 2), FormatDouble(run_rate, 0),
              FormatDouble(event_rate, 0), FormatDouble(fleet.fleet_bytes_per_device, 1),
              FormatDouble(rss_mb, 1)});

    bench.Add("fleet_build_devices_per_sec_" + tag, build_rate, "1/s");
    bench.Add("fleet_run_device_years_per_sec_" + tag, run_rate, "1/s");
    bench.Add("fleet_events_per_sec_" + tag, event_rate, "1/s");
    bench.Add("fleet_total_seconds_" + tag, fleet_total, "s");
    bench.Add("fleet_bytes_per_device_" + tag, fleet.fleet_bytes_per_device, "B");
    bench.Add("rss_after_run_mb_" + tag, rss_mb, "MB");

    if (with_baseline) {
      const double og_total = Median(og_totals);
      std::cout << "  object-graph " << tag << ": build " << FormatDouble(Median(og_builds), 3)
                << "s, run " << FormatDouble(Median(og_runs), 3) << "s (fleet: build "
                << FormatDouble(fleet.build_seconds, 3) << "s, run "
                << FormatDouble(fleet.wall_seconds, 3) << "s)\n";
      bench.Add("object_graph_total_seconds_" + tag + "_seed_baseline", og_total, "s");
      if (n == 100000) {
        fleet_total_100k = fleet_total;
        object_total_100k = og_total;
        speedup_100k = Median(ratios);
      }
      std::string field;
      if (!ReportsMatch(fleet, object_graph, &field)) {
        std::cerr << "PARITY FAILURE at " << n << " devices: field " << field
                  << " differs between fleet core and object-graph replica\n";
        return 1;
      }
      ++parity_checks;
      std::cout << "parity " << tag << ": fleet report matches object-graph replica ("
                << FormatDouble(Median(ratios), 2) << "x median per-round speedup)\n";
    }
  }
  std::cout << "\n";
  t.Print(std::cout);

  if (object_total_100k > 0.0) {
    bench.Add("speedup_vs_object_graph_100k", speedup_100k, "x");
    std::cout << "\n100k-site 50-year run: fleet core " << FormatDouble(speedup_100k, 2)
              << "x faster end-to-end than the object-graph replica (median of paired rounds; "
              << FormatDouble(object_total_100k, 2) << "s vs "
              << FormatDouble(fleet_total_100k, 2) << "s)\n";
  }
  bench.Add("parity_checks_passed", static_cast<double>(parity_checks), "count");

  const std::string path = bench.WriteFile();
  if (!path.empty()) {
    std::cout << "\nWrote " << path << "\n";
  }
  return 0;
}
