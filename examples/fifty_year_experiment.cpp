// The paper's §4 experiment end-to-end, at a reduced 25-year horizon so it
// runs in seconds: owned-802.15.4 vs Helium-LoRa paths, a budgeted
// maintenance crew, prepaid data credits, domain renewals, and the living
// diary. See bench/bench_e1_fifty_year.cc for the full 50-year version.

#include <cstdio>
#include <iostream>

#include "src/core/experiment.h"
#include "src/core/scenario.h"
#include "src/telemetry/report.h"

int main(int argc, char** argv) {
  using namespace centsim;

  FiftyYearConfig cfg;
  if (argc > 1) {
    // Scenario file (see examples/scenario.ini for the key reference).
    std::string error;
    const auto parsed = Config::Load(argv[1], &error);
    const auto loaded =
        parsed.has_value() ? FiftyYearConfigFrom(*parsed, &error) : std::nullopt;
    if (!loaded.has_value()) {
      std::fprintf(stderr, "cannot load scenario %s: %s\n", argv[1], error.c_str());
      return 1;
    }
    cfg = *loaded;
  } else {
    cfg.seed = 2021;  // HotOS '21.
    cfg.devices_802154 = 4;
    cfg.devices_lora = 4;
    cfg.owned_gateways = 2;
    cfg.helium_hotspots = 4;
    cfg.report_interval = SimTime::Hours(4);
    cfg.horizon = SimTime::Years(25);
  }
  // Observability: every run drops a manifest, a metrics snapshot, and a
  // Perfetto-loadable scheduler trace here (see README "Observability").
  if (cfg.artifacts_dir.empty()) {
    cfg.artifacts_dir = "fifty_year_artifacts";
  }

  std::printf("Running %u devices for %s of simulated time...\n",
              cfg.devices_802154 + cfg.devices_lora, cfg.horizon.ToString().c_str());
  const FiftyYearReport report = RunFiftyYearExperiment(cfg);

  Table headline({"metric", "value"});
  headline.AddRow({"weekly end-to-end uptime", FormatPercent(report.weekly_uptime)});
  headline.AddRow({"longest dark gap", std::to_string(report.longest_gap_weeks) + " weeks"});
  headline.AddRow({"packets at endpoint", FormatCount(report.total_packets)});
  headline.AddRow({"device failures / replacements",
                   std::to_string(report.device_failures) + " / " +
                       std::to_string(report.device_replacements)});
  headline.AddRow({"owned gateway failures", std::to_string(report.owned_gateway_failures)});
  headline.AddRow({"maintenance person-hours", FormatDouble(report.maintenance_hours, 1)});
  headline.AddRow({"data credits spent", FormatCount(report.credits_spent)});
  headline.AddRow({"domain renewals (lapses)", std::to_string(report.domain_renewals) + " (" +
                                                   std::to_string(report.domain_lapses) + ")"});
  headline.Print(std::cout);

  Table paths({"path", "devices", "delivery rate", "weekly uptime (any device)"});
  paths.AddRow({"owned 802.15.4", std::to_string(report.owned_path.device_count),
                FormatPercent(report.owned_path.DeliveryRate()),
                FormatPercent(report.owned_path.group_weekly_uptime)});
  paths.AddRow({"Helium LoRa", std::to_string(report.helium_path.device_count),
                FormatPercent(report.helium_path.DeliveryRate()),
                FormatPercent(report.helium_path.group_weekly_uptime)});
  std::cout << "\n";
  paths.Print(std::cout);

  std::cout << "\nLiving diary, by decade (failures / maintenance / warnings):\n";
  for (const auto& decade : report.diary_decades) {
    std::printf("  years %2u-%2u: %3u / %3u / %3u\n", decade.decade * 10, decade.decade * 10 + 9,
                decade.failures, decade.maintenance_actions, decade.warnings);
  }
  std::cout << "\nFirst diary entries:\n";
  for (size_t i = 0; i < report.diary_entries.size() && i < 8; ++i) {
    const auto& e = report.diary_entries[i];
    std::printf("  [%8s] %s: %s\n", e.at.ToString().c_str(), e.component.c_str(),
                e.text.c_str());
  }

  std::printf("\nSimulated %llu events in %.2f s (%.0f events/s).\n",
              static_cast<unsigned long long>(report.events_executed), report.wall_seconds,
              report.wall_seconds > 0 ? report.events_executed / report.wall_seconds : 0.0);
  std::cout << "Run artifacts:\n";
  std::cout << "  manifest: " << report.manifest_path << "\n";
  std::cout << "  metrics:  " << report.metrics_path << "\n";
  std::cout << "  trace:    " << report.trace_path
            << "  (load in https://ui.perfetto.dev or chrome://tracing)\n";
  return 0;
}
