#include "probes.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/city/deployment.h"
#include "src/core/device.h"
#include "src/core/fleet.h"
#include "src/core/network_fabric.h"
#include "src/energy/harvester.h"
#include "src/energy/storage.h"
#include "src/net/backhaul.h"
#include "src/net/cloud_endpoint.h"
#include "src/net/gateway.h"
#include "src/net/network_server.h"
#include "src/radio/contention.h"
#include "src/radio/phy_model.h"
#include "src/reliability/component.h"
#include "src/reliability/survival.h"
#include "src/security/report_auth.h"
#include "src/security/signing.h"
#include "src/sim/simulation.h"

namespace centbench {

using namespace centsim;

namespace {

// Keeps probe results observable so the loops are not optimised away.
volatile double g_sink = 0.0;

template <typename Fn>
double TimeLoop(SpanRecorder& spans, const char* name, int parent, uint32_t run, uint64_t calls,
                Fn&& fn) {
  double sink = 0.0;
  const int id = spans.Begin(name, parent, run);
  for (uint64_t i = 0; i < calls; ++i) {
    sink += fn(i);
  }
  spans.End(id, calls);
  g_sink = g_sink + sink;
  return spans.Seconds(id) * 1e9 / static_cast<double>(calls);
}

// RunFiftyYearExperiment's device construction (src/core/experiment.cc).
std::unique_ptr<EdgeDevice> MakeDevice(Simulation& sim, NetworkFabric& fabric, DeviceFleet& fleet,
                                       uint32_t id, RadioTech tech, double x, double y,
                                       LoraDeviceClass lora_class) {
  EdgeDeviceConfig cfg;
  cfg.id = id;
  cfg.x_m = x;
  cfg.y_m = y;
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
  EnergyManager energy(HarvesterModel::Solar(sp), EnergyStorage::Supercap(), LoadProfileFor(cfg));
  return std::make_unique<EdgeDevice>(sim, std::move(cfg), fabric, fleet, std::move(energy),
                                      SeriesSystem::EnergyHarvestingNode());
}

// The experiment's gateways and devices, placed by RunFiftyYearExperiment's
// layout draws in its order, with the same endpoint authentication and
// network server. Nothing is scheduled to run.
struct PacketPathBench {
  explicit PacketPathBench(const FiftyYearConfig& config)
      : sim(config.seed), fabric(sim), server(&endpoint), fleet(sim) {
    fabric.SetEndpoint(&endpoint);
    fabric.ConfigureMedium(config.medium);
    fabric.SetNetworkServer(&server);
    for (int i = 0; i < 16; ++i) {
      secret[i] = static_cast<uint8_t>(config.seed >> ((i % 8) * 8)) ^ static_cast<uint8_t>(i);
    }
    endpoint.RequireAuthentication(secret);
    campus = MakeCampusBackhaul(sim.StreamFor(0x63616d707573ULL));
    helium = MakeHeliumOpaqueBackhaul(sim.StreamFor(0x68656c69756dULL));
    RandomStream layout = sim.StreamFor(0x6c61796f7574ULL);
    const double side = config.area_side_m;
    for (uint32_t i = 0; i < config.owned_gateways; ++i) {
      GatewayConfig gc;
      gc.id = 1000 + i;
      gc.tech = RadioTech::k802154;
      gc.x_m = side * (0.25 + 0.5 * (i % 2));
      gc.y_m = side * (0.25 + 0.5 * ((i / 2) % 2));
      AddGateway(gc, SeriesSystem::RaspberryPiGateway(), campus.get());
    }
    for (uint32_t i = 0; i < config.helium_hotspots; ++i) {
      GatewayConfig gc;
      gc.id = 2000 + i;
      gc.tech = RadioTech::kLoRa;
      gc.x_m = layout.Uniform(0.0, side);
      gc.y_m = layout.Uniform(0.0, side);
      gc.rx_antenna_gain_db = 5.0;
      AddGateway(gc, SeriesSystem::HeliumHotspot(), helium.get());
    }
    const uint32_t total = config.devices_802154 + config.devices_lora;
    for (uint32_t i = 0; i < total; ++i) {
      const RadioTech tech = i < config.devices_802154 ? RadioTech::k802154 : RadioTech::kLoRa;
      double x = layout.Uniform(0.0, side);
      double y = layout.Uniform(0.0, side);
      if (tech == RadioTech::k802154 && config.owned_gateways > 0) {
        const GatewayConfig& anchor =
            gateways[layout.NextBelow(config.owned_gateways)]->config();
        const double radius = layout.Uniform(10.0, 110.0);
        const double angle = layout.Uniform(0.0, 2.0 * 3.14159265358979);
        x = anchor.x_m + radius * std::cos(angle);
        y = anchor.y_m + radius * std::sin(angle);
      }
      devices.push_back(MakeDevice(sim, fabric, fleet, i + 1, tech, x, y, config.lora_device_class));
      fabric.AddOfferedLoadAt(tech, 1.0 / config.report_interval.ToHours(), x, y);
      keys.push_back(DeriveDeviceKey(secret, i + 1));
      sequences.push_back(0);
    }
  }

  void AddGateway(GatewayConfig gc, SeriesSystem hardware, Backhaul* backhaul) {
    auto gw = std::make_unique<Gateway>(sim, gc, std::move(hardware));
    gw->AttachBackhaul(backhaul);
    gw->Deploy();
    fabric.AddGateway(gw.get());
    gateways.push_back(std::move(gw));
  }

  // The next signed frame of device `d`, built as EdgeDevice builds it.
  UplinkPacket NextPacket(size_t d, SimTime now) {
    const EdgeDeviceConfig& c = devices[d]->config();
    UplinkPacket pkt;
    pkt.device_id = c.id;
    pkt.sequence = ++sequences[d];
    pkt.payload_bytes = c.payload_bytes;
    pkt.tech = c.tech;
    pkt.sent_at = now;
    pkt.reading.device_id = c.id;
    pkt.reading.sequence = pkt.sequence;
    pkt.reading.value_centi = static_cast<int16_t>(2000 + pkt.sequence % 500);
    pkt.reading.sensor_type = static_cast<uint8_t>(c.sensor_kind);
    pkt.reading.battery_soc = 200;
    pkt.authenticated = true;
    pkt.auth_tag = ComputeReadingTag(keys[d], pkt.device_id, pkt.sequence, pkt.reading);
    return pkt;
  }

  NetworkFabric::UplinkParams ParamsOf(size_t d) const {
    const EdgeDeviceConfig& c = devices[d]->config();
    NetworkFabric::UplinkParams p;
    p.x_m = c.x_m;
    p.y_m = c.y_m;
    p.tx_power_dbm = c.tx_power_dbm;
    p.lora = c.lora;
    p.vendor = c.vendor;
    return p;
  }

  Simulation sim;
  CloudEndpoint endpoint;
  NetworkFabric fabric;
  NetworkServer server;
  std::unique_ptr<Backhaul> campus;
  std::unique_ptr<Backhaul> helium;
  std::vector<std::unique_ptr<Gateway>> gateways;  // Owned first, then hotspots.
  DeviceFleet fleet;
  std::vector<std::unique_ptr<EdgeDevice>> devices;  // After the fleet: released first.
  SipHashKey secret{};
  std::vector<SipHashKey> keys;
  std::vector<uint32_t> sequences;
};

}  // namespace

PacketPathProbe ProbePacketPath(const FiftyYearConfig& config, SpanRecorder& spans, int parent,
                                uint32_t run) {
  PacketPathProbe out;
  PacketPathBench bench(config);
  const size_t n = bench.devices.size();

  // Offer: one frame per device in turn, signed as the device signs it.
  constexpr uint64_t kOffers = 200000;
  std::vector<UplinkPacket> packets;
  packets.reserve(kOffers);
  for (uint64_t i = 0; i < kOffers; ++i) {
    packets.push_back(bench.NextPacket(i % n, SimTime()));
  }
  std::vector<NetworkFabric::UplinkParams> params;
  for (size_t d = 0; d < n; ++d) {
    params.push_back(bench.ParamsOf(d));
  }
  RandomStream rng = bench.sim.StreamFor(0x70726f6265ULL);
  out.offer_ns = TimeLoop(spans, "NetworkFabric::Offer", parent, run, kOffers, [&](uint64_t i) {
    const NetworkFabric::TxRequest request{packets[i], params[i % n]};
    return bench.fabric.Offer(request, rng).rssi_dbm;
  });

  // Reception strengths the medium actually produced feed the PER probes.
  std::vector<double> rx_802154;
  std::vector<double> rx_lora;
  for (uint64_t i = 0; i < 4096; ++i) {
    const NetworkFabric::TxRequest request{bench.NextPacket(i % n, SimTime()), params[i % n]};
    const DeliveryReport report = bench.fabric.Offer(request, rng);
    if (report.witnesses > 0) {
      (request.packet.tech == RadioTech::k802154 ? rx_802154 : rx_lora).push_back(report.rssi_dbm);
    }
  }
  // A layout in which no gateway hears one technology (every hotspot out
  // of range) still probes PER, at a level near the sensitivity edge.
  if (rx_802154.empty()) {
    rx_802154.push_back(-90.0);
  }
  if (rx_lora.empty()) {
    rx_lora.push_back(-120.0);
  }

  // Link loss over every technology-matching (device, gateway) pair.
  struct Link {
    double distance_m;
    uint64_t seed;
    const PathLossModel* model;
  };
  const PathLossModel urban_24 = PathLossModel::Urban24GHz();
  const PathLossModel urban_915 = PathLossModel::Urban915MHz();
  std::vector<Link> links;
  for (const auto& dev : bench.devices) {
    for (const auto& gw : bench.gateways) {
      if (gw->config().tech != dev->config().tech) {
        continue;
      }
      const double dx = dev->config().x_m - gw->config().x_m;
      const double dy = dev->config().y_m - gw->config().y_m;
      links.push_back({std::sqrt(dx * dx + dy * dy),
                       RadioLinkSeed(config.seed, dev->config().id, gw->config().id),
                       dev->config().tech == RadioTech::k802154 ? &urban_24 : &urban_915});
    }
  }
  constexpr uint64_t kCalls = 1000000;
  out.link_loss_ns = TimeLoop(spans, "PathLossModel::LinkLossDb", parent, run, kCalls,
                              [&](uint64_t i) {
                                const Link& l = links[i % links.size()];
                                return l.model->LinkLossDb(l.distance_m, l.seed);
                              });

  const PhyModel phy_802154 = PhyModel::For802154();
  out.per_802154_ns = TimeLoop(spans, "PhyModel::PacketErrorRate(802.15.4)", parent, run, kCalls,
                               [&](uint64_t i) {
                                 return phy_802154.PacketErrorRate(rx_802154[i % rx_802154.size()],
                                                                   12);
                               });
  const PhyModel phy_lora = PhyModel::ForLora(bench.devices.back()->config().lora);
  out.per_lora_ns = TimeLoop(spans, "PhyModel::PacketErrorRate(LoRa)", parent, run, kCalls,
                             [&](uint64_t i) {
                               return phy_lora.PacketErrorRate(rx_lora[i % rx_lora.size()], 12);
                             });

  // Gateway, network server and endpoint, each fed fresh frames an hour apart.
  std::vector<UplinkPacket> frames;
  frames.reserve(kCalls / 2);
  for (uint64_t i = 0; i < kCalls / 2; ++i) {
    frames.push_back(bench.NextPacket(i % n, SimTime::Hours(static_cast<double>(i / n))));
  }
  Gateway& owned = *bench.gateways.front();
  out.accept_ns = TimeLoop(spans, "Gateway::Accept", parent, run, frames.size(), [&](uint64_t i) {
    return static_cast<double>(owned.Accept(frames[i]));
  });
  NetworkServer server;  // No endpoint: Record is probed on its own below.
  out.ingest_ns = TimeLoop(spans, "NetworkServer::Ingest", parent, run, frames.size(),
                           [&](uint64_t i) {
                             return static_cast<double>(
                                 server.Ingest(frames[i], 2000, -110.0, frames[i].sent_at)
                                     .witnesses);
                           });
  CloudEndpoint endpoint;
  endpoint.RequireAuthentication(bench.secret);
  out.record_ns = TimeLoop(spans, "CloudEndpoint::Record", parent, run, frames.size(),
                           [&](uint64_t i) {
                             return static_cast<double>(
                                 endpoint.Record(frames[i], frames[i].sent_at));
                           });
  out.tag_ns = TimeLoop(spans, "ComputeReadingTag", parent, run, frames.size(), [&](uint64_t i) {
    const UplinkPacket& p = frames[i];
    return static_cast<double>(
        ComputeReadingTag(bench.keys[i % n], p.device_id, p.sequence, p.reading));
  });
  return out;
}

EnergyLevels CompareEnergyLevels(const FiftyYearConfig& config, SpanRecorder& spans, int parent,
                                 uint32_t run) {
  Simulation sim(config.seed);
  NetworkFabric fabric(sim);
  DeviceFleet fleet(sim);
  // Two identical units of device 1: one stepped, one fast-forwarded.
  const auto stepped = MakeDevice(sim, fabric, fleet, 1, RadioTech::k802154, 0.0, 0.0,
                                  config.lora_device_class);
  const auto skipped = MakeDevice(sim, fabric, fleet, 1, RadioTech::k802154, 0.0, 0.0,
                                  config.lora_device_class);
  const uint32_t stepped_slot = DeviceFleet::SlotOf(stepped->handle());
  const uint32_t skipped_slot = DeviceFleet::SlotOf(skipped->handle());

  EnergyLevels out;
  const int64_t step = config.report_interval.micros();
  out.attempts = static_cast<uint64_t>(config.horizon.micros() / step);
  uint64_t granted = 0;
  out.try_transmit_ns = TimeLoop(spans, "DeviceFleet::EnergyTryTransmit", parent, run,
                                 out.attempts, [&](uint64_t k) {
                                   const SimTime at = SimTime::Micros(static_cast<int64_t>(k + 1) * step);
                                   const bool ok = fleet.EnergyTryTransmit(stepped_slot, at);
                                   granted += ok;
                                   return ok ? 1.0 : 0.0;
                                 });
  const int id = spans.Begin("DeviceFleet::FastForwardEnergyAt", parent, run);
  const FastForwardResult ff = fleet.FastForwardEnergyAt(
      skipped_slot, SimTime::Micros(static_cast<int64_t>(out.attempts) * step));
  spans.End(id);
  out.detailed_granted = static_cast<double>(granted) / static_cast<double>(out.attempts);
  out.fast_forward_granted =
      ff.attempts > 0 ? static_cast<double>(ff.granted) / static_cast<double>(ff.attempts) : 0.0;
  return out;
}

LifeLevels CompareLifeLevels(SimTime horizon) {
  LifeLevels out;
  const SeriesSystem boms[3] = {SeriesSystem::EnergyHarvestingNode(),
                                SeriesSystem::RaspberryPiGateway(), SeriesSystem::HeliumHotspot()};
  const double days = std::floor(horizon.ToDays());
  for (int b = 0; b < 3; ++b) {
    const SeriesSystem& bom = boms[b];
    const SurvivalTable table = SurvivalTable::Build([&bom](SimTime t) { return bom.Survival(t); });
    double exact = 0.0;
    double tabled = 0.0;
    for (double d = 0.5; d < days; d += 1.0) {  // Midpoint rule, one-day steps.
      exact += bom.Survival(SimTime::Days(d));
      tabled += table.SurvivalAt(SimTime::Days(d));
    }
    out.detailed_years[b] = exact / 365.25;
    out.table_years[b] = tabled / 365.25;
  }
  return out;
}

double ProbeSampleLifeNs(const DistrictConfig& config, SpanRecorder& spans, int parent,
                         uint32_t run) {
  const SeriesSystem bom = config.device_class == DeviceClassKind::kBatteryPowered
                               ? SeriesSystem::BatteryPoweredNode()
                               : SeriesSystem::EnergyHarvestingNode();
  RandomStream rng = RandomStream(config.seed).Derive(0x646973740003ULL);
  return TimeLoop(spans, "SeriesSystem::SampleLife", parent, run, 1000000,
                  [&](uint64_t) { return bom.SampleLife(rng).life.ToSeconds(); });
}

double ProbeCityPlanSeconds(const DistrictConfig& config, SpanRecorder& spans, int parent,
                            uint32_t run) {
  const int id = spans.Begin("DeploymentPlan+PlanGatewayGrid+BuildCoverageCsr", parent, run);
  DeploymentPlan::Params dp;
  dp.site_count = config.device_count;
  dp.area_km2 = config.area_km2;
  dp.zone_grid = config.zone_grid;
  // RunDistrictScenario's plan stream (Simulation::StreamFor of the same id).
  const DeploymentPlan plan(dp, RandomStream(config.seed).Derive(0x646973740001ULL));
  const std::vector<Site> gateways = plan.PlanGatewayGrid(config.gateway_range_m);
  const CoverageCsr csr = BuildCoverageCsr(plan.sites(), gateways, config.gateway_range_m);
  spans.End(id);
  g_sink = g_sink + static_cast<double>(csr.site_ids.size());
  return spans.Seconds(id);
}

}  // namespace centbench
