#include "src/core/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/core/device.h"
#include "src/core/fleet.h"
#include "src/core/network_fabric.h"
#include "src/econ/data_credits.h"
#include "src/energy/harvester.h"
#include "src/energy/storage.h"
#include "src/mgmt/domain_lease.h"
#include "src/mgmt/succession.h"
#include "src/net/backhaul.h"
#include "src/net/cloud_endpoint.h"
#include "src/net/gateway.h"
#include "src/net/network_server.h"
#include "src/security/siphash.h"
#include "src/sim/ensemble.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/simulation.h"
#include "src/snapshot/timer_table.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/metrics_jsonl.h"
#include "src/telemetry/run_manifest.h"

namespace centsim {
namespace {

std::unique_ptr<EdgeDevice> MakeExperimentDevice(Simulation& sim, NetworkFabric& fabric,
                                                 DeviceFleet& fleet, uint32_t id, RadioTech tech,
                                                 double x_m, double y_m,
                                                 LoraDeviceClass lora_class) {
  EdgeDeviceConfig cfg;
  cfg.id = id;
  cfg.x_m = x_m;
  cfg.y_m = y_m;
  cfg.tech = tech;
  cfg.name = std::string(RadioTechName(tech)) + "-dev-" + std::to_string(id);
  if (tech == RadioTech::k802154) {
    cfg.tx_power_dbm = 4.0;
  } else {
    cfg.tx_power_dbm = 14.0;
    cfg.lora.sf = LoraSf::kSf9;
    cfg.lora_class = lora_class;
  }

  SolarHarvester::Params sp;
  sp.peak_power_w = 0.010;
  sp.weather_seed = sim.seed() ^ id;
  EnergyManager energy(HarvesterModel::Solar(sp), EnergyStorage::Supercap(),
                       LoadProfileFor(cfg));

  return std::make_unique<EdgeDevice>(sim, std::move(cfg), fabric, fleet, std::move(energy),
                                      SeriesSystem::EnergyHarvestingNode());
}

// Flattened configuration text for the manifest's config digest: every
// field that changes simulation behaviour, in a fixed order.
std::string FlattenConfig(const FiftyYearConfig& config) {
  std::string text;
  auto add = [&text](const char* key, const std::string& value) {
    text += key;
    text += '=';
    text += value;
    text += '\n';
  };
  add("seed", std::to_string(config.seed));
  add("devices_802154", std::to_string(config.devices_802154));
  add("devices_lora", std::to_string(config.devices_lora));
  add("owned_gateways", std::to_string(config.owned_gateways));
  add("helium_hotspots", std::to_string(config.helium_hotspots));
  add("report_interval_us", std::to_string(config.report_interval.micros()));
  add("horizon_us", std::to_string(config.horizon.micros()));
  add("wallet_usd_per_device", std::to_string(config.wallet_usd_per_device));
  add("maintenance_enabled", std::to_string(config.maintenance.enabled));
  add("maintenance_mean_response_us", std::to_string(config.maintenance.mean_response.micros()));
  add("maintenance_mean_repair_us", std::to_string(config.maintenance.mean_repair.micros()));
  add("maintenance_annual_budget_hours", std::to_string(config.maintenance.annual_budget_hours));
  add("maintenance_hourly_rate_usd", std::to_string(config.maintenance.hourly_rate_usd));
  add("replace_failed_devices", std::to_string(config.replace_failed_devices));
  add("device_replacement_delay_us", std::to_string(config.device_replacement_delay.micros()));
  add("area_side_m", std::to_string(config.area_side_m));
  add("hotspot_replacement_prob", std::to_string(config.hotspot_replacement_prob));
  add("hotspot_replacement_mean_us", std::to_string(config.hotspot_replacement_mean.micros()));
  add("medium_grid_buckets", std::to_string(config.medium.grid_buckets));
  add("medium_grid_cell_m", std::to_string(config.medium.grid_cell_m));
  add("medium_sir_capture", std::to_string(config.medium.sir_capture));
  add("medium_capture_margin_db", std::to_string(config.medium.capture_margin_db));
  add("medium_cad", std::to_string(config.medium.cad));
  add("lora_device_class", LoraDeviceClassName(config.lora_device_class));
  return text;
}

}  // namespace

std::vector<std::string> FiftyYearConfig::Validate() const {
  std::vector<std::string> diagnostics;
  if (devices_802154 + devices_lora == 0) {
    diagnostics.push_back(
        "no devices: set devices_802154 and/or devices_lora to at least 1");
  }
  if (horizon.micros() <= 0) {
    diagnostics.push_back("non-positive horizon (" + horizon.ToString() +
                          "): set horizon to a positive duration");
  }
  if (report_interval.micros() <= 0) {
    diagnostics.push_back("non-positive report_interval (" + report_interval.ToString() +
                          "): devices need a positive reporting cadence");
  }
  if (report_interval.micros() > 0 && horizon.micros() > 0 && report_interval > horizon) {
    diagnostics.push_back("report_interval (" + report_interval.ToString() +
                          ") exceeds horizon (" + horizon.ToString() +
                          "): no device would ever report");
  }
  if (wallet_usd_per_device < 0.0) {
    diagnostics.push_back("negative wallet_usd_per_device: wallets cannot be provisioned "
                          "with negative funds");
  }
  if (hotspot_replacement_prob < 0.0 || hotspot_replacement_prob > 1.0) {
    diagnostics.push_back("hotspot_replacement_prob must be a probability in [0, 1]");
  }
  if (area_side_m <= 0.0) {
    diagnostics.push_back("non-positive area_side_m: the deployment square needs area");
  }
  if (replace_failed_devices && device_replacement_delay.micros() < 0) {
    diagnostics.push_back("negative device_replacement_delay: replacements cannot be "
                          "scheduled in the past");
  }
  return diagnostics;
}

FiftyYearReport RunFiftyYearExperiment(const FiftyYearConfig& config) {
  CheckConfigOrDie("fifty_year", config.Validate());
  Simulation sim(config.seed);
  sim.trace().set_min_level(TraceLevel::kMaintenance);

  // Observability: attach the caller's registry/profiler, or create local
  // ones when artifacts were requested so the files are still complete.
  // This must happen before components are constructed — they grab their
  // instruments from the registry in their constructors.
  const bool want_artifacts = !config.artifacts_dir.empty();
  std::unique_ptr<MetricsRegistry> local_metrics;
  std::unique_ptr<SchedulerProfiler> local_profiler;
  MetricsRegistry* metrics = config.metrics;
  // Profiler precedence: explicit config.profiler, then the run-control
  // hooks' (EnsembleRunner wires per-replica profilers there), then a
  // local one if artifacts need it.
  SchedulerProfiler* profiler =
      config.profiler != nullptr ? config.profiler : config.control.profiler;
  if (metrics == nullptr && want_artifacts) {
    local_metrics = std::make_unique<MetricsRegistry>();
    metrics = local_metrics.get();
  }
  if (profiler == nullptr && want_artifacts) {
    local_profiler = std::make_unique<SchedulerProfiler>();
    profiler = local_profiler.get();
  }
  sim.SetMetrics(metrics);
  // Attach the recorder/progress/slot hooks first, then the resolved
  // profiler (so the precedence above wins over control.profiler).
  sim.scheduler().AttachRunControl(config.control);
  sim.scheduler().SetProfiler(profiler);

  RandomStream layout_rng = sim.StreamFor(0x6c61796f7574ULL);

  CloudEndpoint endpoint;
  NetworkFabric fabric(sim);
  fabric.SetEndpoint(&endpoint);
  fabric.ConfigureMedium(config.medium);

  // LoRaWAN network server: hotspots forward copies, the server dedups;
  // with multi-buy = 1 (below) only the first copy is purchased.
  NetworkServer network_server(&endpoint);
  network_server.BindMetrics(metrics);
  fabric.SetNetworkServer(&network_server);

  // Batch provisioning secret: every device signs, the endpoint verifies.
  SipHashKey batch_secret{};
  for (int i = 0; i < 16; ++i) {
    batch_secret[i] = static_cast<uint8_t>(config.seed >> ((i % 8) * 8)) ^ static_cast<uint8_t>(i);
  }
  endpoint.RequireAuthentication(batch_secret);

  // --- Backhauls ---
  auto campus = MakeCampusBackhaul(sim.StreamFor(0x63616d707573ULL));
  auto helium_backhaul = MakeHeliumOpaqueBackhaul(sim.StreamFor(0x68656c69756dULL));

  // --- Owned 802.15.4 gateways, maintained within a budget ---
  MaintenanceCrew crew(sim, config.maintenance);
  std::vector<std::unique_ptr<Gateway>> owned_gateways;
  for (uint32_t i = 0; i < config.owned_gateways; ++i) {
    GatewayConfig gc;
    gc.id = 1000 + i;
    gc.tech = RadioTech::k802154;
    // Spread across the square so every device has a usable link.
    gc.x_m = config.area_side_m * (0.25 + 0.5 * (i % 2));
    gc.y_m = config.area_side_m * (0.25 + 0.5 * ((i / 2) % 2));
    gc.name = "owned-gw-" + std::to_string(i);
    auto gw = std::make_unique<Gateway>(sim, gc, SeriesSystem::RaspberryPiGateway());
    gw->AttachBackhaul(campus.get());
    gw->SetRepairPolicy(crew.AsRepairPolicy());
    gw->Deploy();
    fabric.AddGateway(gw.get());
    owned_gateways.push_back(std::move(gw));
  }

  // --- Helium hotspots: third-party, prepaid wallet, owner-churn ---
  const uint64_t provisioned =
      static_cast<uint64_t>(config.devices_lora) * UsdToCredits(config.wallet_usd_per_device);
  DataCreditWallet wallet(provisioned);
  // Helium multi-buy = 1 (the paper's §4.4 costing): only the first copy
  // of each frame is purchased; other witnesses' copies are not bought and
  // are dropped at the router. Sequences are strictly increasing, so one
  // remembered counter per device implements the purchase dedup.
  auto purchased = std::make_shared<std::unordered_map<uint32_t, uint32_t>>();
  auto payment_hook = [&wallet, purchased](const UplinkPacket& pkt) {
    auto it = purchased->find(pkt.device_id);
    if (it != purchased->end() && it->second == pkt.sequence) {
      return false;  // Copy not purchased (multi-buy exhausted).
    }
    if (!wallet.ChargePacket(pkt.payload_bytes)) {
      return false;
    }
    (*purchased)[pkt.device_id] = pkt.sequence;
    return true;
  };
  RandomStream hotspot_rng = sim.StreamFor(0x686f7473706f74ULL);
  std::vector<std::unique_ptr<Gateway>> hotspots;
  for (uint32_t i = 0; i < config.helium_hotspots; ++i) {
    GatewayConfig gc;
    gc.id = 2000 + i;
    gc.tech = RadioTech::kLoRa;
    gc.x_m = layout_rng.Uniform(0.0, config.area_side_m);
    gc.y_m = layout_rng.Uniform(0.0, config.area_side_m);
    gc.rx_antenna_gain_db = 5.0;
    gc.name = "helium-hotspot-" + std::to_string(i);
    auto gw = std::make_unique<Gateway>(sim, gc, SeriesSystem::HeliumHotspot());
    gw->AttachBackhaul(helium_backhaul.get());
    gw->SetPaymentHook(payment_hook);
    // Hotspot owners replace dead units... sometimes.
    gw->SetRepairPolicy([&sim, &hotspot_rng, &config](SimTime fail_time) {
      if (!hotspot_rng.NextBool(config.hotspot_replacement_prob)) {
        return SimTime::Max();
      }
      return fail_time + SimTime::Seconds(hotspot_rng.Exponential(
                             config.hotspot_replacement_mean.ToSeconds()));
    });
    gw->Deploy();
    fabric.AddGateway(gw.get());
    hotspots.push_back(std::move(gw));
  }

  // --- Experimenter succession + domain lease on the public endpoint ---
  // Custodians turn over across 50 years (§4.5); their knowledge level —
  // sustained by the living diary — modulates the renewal lapse risk.
  const SuccessionReport succession =
      SimulateSuccession(SuccessionParams{}, config.horizon, sim.StreamFor(0x73756363ULL));
  DomainLease lease(sim, endpoint, DomainLeaseParams{});
  lease.SetKnowledgeProvider(
      [&succession](SimTime t) { return succession.KnowledgeAt(t); });
  lease.Start();

  // --- Devices ---
  // 802.15.4 has ~100-200 m of street-level range at 4 dBm, so those
  // devices are sited where the owned gateways provide coverage (§3.1:
  // rely on properties of infrastructure — here, that an owned gateway is
  // nearby). LoRa devices scatter anywhere in the square; the hotspots'
  // link budget spans it.
  FiftyYearReport report;
  // Fleet columns hold the hot per-device state; devices (facades) are
  // declared after the fleet so their destructors release handles first.
  DeviceFleet fleet(sim);
  std::vector<std::unique_ptr<EdgeDevice>> devices;
  std::vector<uint32_t> ids_154;
  std::vector<uint32_t> ids_lora;
  const uint32_t total_devices = config.devices_802154 + config.devices_lora;
  for (uint32_t i = 0; i < total_devices; ++i) {
    const RadioTech tech = i < config.devices_802154 ? RadioTech::k802154 : RadioTech::kLoRa;
    double x = layout_rng.Uniform(0.0, config.area_side_m);
    double y = layout_rng.Uniform(0.0, config.area_side_m);
    if (tech == RadioTech::k802154 && !owned_gateways.empty()) {
      const auto& anchor =
          owned_gateways[layout_rng.NextBelow(owned_gateways.size())]->config();
      const double radius = layout_rng.Uniform(10.0, 110.0);
      const double angle = layout_rng.Uniform(0.0, 2.0 * 3.14159265358979);
      x = anchor.x_m + radius * std::cos(angle);
      y = anchor.y_m + radius * std::sin(angle);
    }
    auto dev = MakeExperimentDevice(sim, fabric, fleet, i + 1, tech, x, y,
                                    config.lora_device_class);
    dev->EnableSigning(batch_secret);
    (tech == RadioTech::k802154 ? ids_154 : ids_lora).push_back(dev->config().id);
    // Subsystem flight-recorder records: device lifecycle transitions are
    // exactly what a stall/crash dump needs alongside the sampled
    // scheduler events. One relaxed-store append each — negligible, and
    // these are rare events.
    FlightRecorder* recorder = config.control.recorder;
    dev->SetFailureCallback([&report, &sim, &config, recorder](EdgeDevice& failed, SimTime at) {
      ++report.device_failures;
      report.device_survival.Observe(at - failed.deployed_at(), /*failed=*/true);
      if (recorder != nullptr) {
        recorder->Record("device.failure", at, failed.config().id);
      }
      if (config.replace_failed_devices) {
        sim.scheduler().ScheduleAfter(
            config.device_replacement_delay,
            [&report, &failed, &sim, recorder] {
              ++report.device_replacements;
              if (recorder != nullptr) {
                recorder->Record("device.replacement", sim.scheduler().Now(), failed.config().id);
              }
              failed.ReplaceUnit();
            },
            "device.replacement");
      }
    });
    dev->Deploy();
    devices.push_back(std::move(dev));
  }

  // Class B downlink beacons: the medium broadcasts on the LoRaWAN beacon
  // cadence and every live class-B listener pays the receive-window
  // energy. Routed through a TimerTable so drivers that checkpoint can
  // round-trip the pending beacon. Class A/C cohorts never arm it.
  TimerTable medium_timers(sim.scheduler());
  if (config.lora_device_class == LoraDeviceClass::kClassB && config.devices_lora > 0) {
    fabric.RegisterMediumTimers(medium_timers, &fleet);
    fabric.StartClassBBeacons();
  }

  // Mid-run telemetry flush (opt-in): atomically rewrite metrics.jsonl on
  // a simulated-time cadence so a killed run keeps its latest snapshot.
  std::unique_ptr<PeriodicEvent> telemetry_flusher;
  if (want_artifacts && metrics != nullptr && config.telemetry_flush_period.micros() > 0) {
    const std::string metrics_path = config.artifacts_dir + "/metrics.jsonl";
    std::error_code flush_ec;
    std::filesystem::create_directories(config.artifacts_dir, flush_ec);
    telemetry_flusher = std::make_unique<PeriodicEvent>(
        sim.scheduler(), config.telemetry_flush_period,
        EventFn([metrics, metrics_path] { FlushMetricsJsonl(*metrics, metrics_path); }),
        "telemetry.flush");
    telemetry_flusher->Start(config.telemetry_flush_period);
  }

  // --- Run ---
  const auto wall_start = std::chrono::steady_clock::now();
  sim.RunUntil(config.horizon);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  // --- Harvest results ---
  report.weekly_uptime = endpoint.WeeklyUptime(config.horizon);
  report.longest_gap_weeks = endpoint.LongestGapWeeks(config.horizon);
  report.total_packets = endpoint.total_packets();
  report.tier_attribution = fabric.TierAttribution();
  report.events_executed = sim.scheduler().executed_count();

  auto fill_path = [&](PathStats& path, const std::vector<uint32_t>& ids) {
    path.device_count = static_cast<uint32_t>(ids.size());
    path.group_weekly_uptime = endpoint.GroupWeeklyUptime(ids, config.horizon);
    double uptime_sum = 0.0;
    for (const auto& dev : devices) {
      if (std::find(ids.begin(), ids.end(), dev->config().id) == ids.end()) {
        continue;
      }
      path.attempts += dev->attempts();
      path.delivered += dev->delivered();
      for (int o = 0; o < kDeliveryOutcomeCount; ++o) {
        path.outcomes[o] += dev->OutcomeCount(static_cast<DeliveryOutcome>(o));
      }
      uptime_sum += endpoint.DeviceWeeklyUptime(dev->config().id, config.horizon);
    }
    path.mean_device_weekly_uptime = ids.empty() ? 0.0 : uptime_sum / ids.size();
  };
  fill_path(report.owned_path, ids_154);
  fill_path(report.helium_path, ids_lora);

  for (const auto& dev : devices) {
    if (dev->alive()) {
      report.device_survival.Observe(config.horizon - dev->deployed_at(), /*failed=*/false);
    }
  }
  for (const auto& gw : owned_gateways) {
    report.owned_gateway_failures += gw->failure_count();
  }
  for (const auto& gw : hotspots) {
    report.hotspot_failures += gw->failure_count();
  }

  report.maintenance_repairs = crew.repairs_completed();
  report.maintenance_refused = crew.repairs_refused();
  report.maintenance_hours = crew.total_hours();
  report.maintenance_cost_usd = crew.TotalCostUsd();

  report.credits_provisioned = provisioned;
  report.credits_spent = wallet.spent();
  report.credits_refused = wallet.refused();

  report.domain_renewals = lease.renewals();
  report.domain_lapses = lease.lapses();

  report.auth_rejected = endpoint.auth_rejected();
  report.replay_rejected = endpoint.replay_rejected();

  report.custodian_handovers = succession.handovers;
  report.final_knowledge = succession.final_knowledge;

  report.frames_deduplicated = network_server.duplicates_suppressed();
  report.mean_witnesses = network_server.MeanWitnesses();

  const ExperimentDiary diary = ExperimentDiary::FromTrace(sim.trace());
  report.diary_decades = diary.ByDecade();
  report.diary_entries = diary.entries();

  // --- Run artifacts ---
  if (profiler != nullptr && metrics != nullptr) {
    profiler->ExportTo(*metrics);
  }
  if (want_artifacts) {
    std::error_code ec;
    std::filesystem::create_directories(config.artifacts_dir, ec);
    const std::string dir = config.artifacts_dir + "/";

    RunManifest manifest;
    manifest.run_name = config.run_name;
    manifest.seed = config.seed;
    manifest.config_digest = ConfigDigest(FlattenConfig(config));
    manifest.horizon = config.horizon;
    manifest.wall_seconds = report.wall_seconds;
    manifest.events_executed = report.events_executed;
    manifest.AddExtra("devices", std::to_string(total_devices));
    manifest.AddExtra("weekly_uptime", std::to_string(report.weekly_uptime));
    if (manifest.WriteFile(dir + "manifest.json")) {
      report.manifest_path = dir + "manifest.json";
    }
    if (metrics != nullptr &&
        WriteMetricsJsonlFile(*metrics, dir + "metrics.jsonl")) {
      report.metrics_path = dir + "metrics.jsonl";
    }
    if (profiler != nullptr) {
      ChromeTraceWriter trace_writer("centsim:" + config.run_name);
      trace_writer.AddProfile(*profiler);
      if (trace_writer.WriteFile(dir + "trace.json")) {
        report.trace_path = dir + "trace.json";
      }
    }
  }

  // Detach before the local registry/profiler (and sim) go out of scope.
  // DetachRunControl clears the SchedulerSlot first, so no watchdog or
  // status thread can reach this scheduler once we start tearing down.
  sim.scheduler().DetachRunControl(config.control);
  sim.scheduler().SetProfiler(nullptr);
  sim.SetMetrics(nullptr);

  return report;
}

}  // namespace centsim
