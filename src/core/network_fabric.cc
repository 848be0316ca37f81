#include "src/core/network_fabric.h"

#include <algorithm>
#include <cmath>

#include "src/radio/medium.h"
#include "src/radio/phy_802154.h"

namespace centsim {
namespace {

// Medium-owned timer tags (TimerTable re-arm registry).
constexpr uint64_t kMediumBeaconTag = 0x4D45442E42434Eull;  // "MED.BCN"
constexpr uint64_t kMediumCadTag = 0x4D45442E434144ull;     // "MED.CAD"

}  // namespace

NetworkFabric::NetworkFabric(Simulation& sim)
    : sim_(sim),
      pl_802154_(PathLossModel::Urban24GHz()),
      pl_lora_(PathLossModel::Urban915MHz()) {
  // Pre-create only the legacy outcomes: their creation order is pinned by
  // the golden digests. Outcomes appended later (kCadBusy) are created
  // lazily on first increment, so default runs emit byte-identical
  // metric files.
  for (size_t t = 0; t < outcome_metrics_.size(); ++t) {
    const char* tech = RadioTechName(static_cast<RadioTech>(t));
    for (int i = 0; i < kLegacyDeliveryOutcomeCount; ++i) {
      outcome_metrics_[t][i] = sim_.MetricCounter(
          "uplink.outcomes",
          MetricLabels{{"tech", tech},
                       {"outcome", DeliveryOutcomeName(static_cast<DeliveryOutcome>(i))}});
    }
  }
}

void NetworkFabric::SetPathLoss(RadioTech tech, PathLossModel model) {
  if (tech == RadioTech::k802154) {
    pl_802154_ = model;
  } else {
    pl_lora_ = model;
  }
  link_rows_.clear();
}

void NetworkFabric::AddGateway(Gateway* gateway) {
  gateways_.push_back(gateway);
  capture_ewma_mw_.push_back(0.0);
  gw_grid_dirty_ = true;
  link_rows_.clear();
}

void NetworkFabric::ConfigureMedium(const MediumConfig& config) {
  medium_ = config;
  gw_grid_dirty_ = true;
  link_rows_.clear();
}

void NetworkFabric::RebuildGridIfNeeded() {
  if (!gw_grid_dirty_) {
    return;
  }
  std::vector<double> gx;
  std::vector<double> gy;
  gx.reserve(gateways_.size());
  gy.reserve(gateways_.size());
  for (const Gateway* gw : gateways_) {
    gx.push_back(gw->config().x_m);
    gy.push_back(gw->config().y_m);
  }
  gw_grid_ = GatewayCellGrid(gx, gy, medium_.grid_cell_m);
  gw_grid_dirty_ = false;
}

void NetworkFabric::AddOfferedLoad(RadioTech tech, double packets_per_hour) {
  (tech == RadioTech::k802154 ? offered_pph_802154_ : offered_pph_lora_) += packets_per_hour;
}

void NetworkFabric::RemoveOfferedLoad(RadioTech tech, double packets_per_hour) {
  double& load = tech == RadioTech::k802154 ? offered_pph_802154_ : offered_pph_lora_;
  load = std::max(0.0, load - packets_per_hour);
}

void NetworkFabric::AddOfferedLoadAt(RadioTech tech, double packets_per_hour, double x_m,
                                     double y_m) {
  AddOfferedLoad(tech, packets_per_hour);
  const int64_t cx = static_cast<int64_t>(std::floor(x_m / medium_.grid_cell_m));
  const int64_t cy = static_cast<int64_t>(std::floor(y_m / medium_.grid_cell_m));
  cell_pph_[static_cast<size_t>(tech)][LoadCellKey(cx, cy)] += packets_per_hour;
}

void NetworkFabric::RemoveOfferedLoadAt(RadioTech tech, double packets_per_hour, double x_m,
                                        double y_m) {
  RemoveOfferedLoad(tech, packets_per_hour);
  const int64_t cx = static_cast<int64_t>(std::floor(x_m / medium_.grid_cell_m));
  const int64_t cy = static_cast<int64_t>(std::floor(y_m / medium_.grid_cell_m));
  auto& cells = cell_pph_[static_cast<size_t>(tech)];
  auto it = cells.find(LoadCellKey(cx, cy));
  if (it != cells.end()) {
    it->second = std::max(0.0, it->second - packets_per_hour);
  }
}

double NetworkFabric::OfferedLoadHz(RadioTech tech) const {
  return (tech == RadioTech::k802154 ? offered_pph_802154_ : offered_pph_lora_) / 3600.0;
}

double NetworkFabric::LocalOfferedLoadHz(RadioTech tech, double x_m, double y_m) const {
  if (!medium_.grid_buckets) {
    return OfferedLoadHz(tech);
  }
  const auto& cells = cell_pph_[static_cast<size_t>(tech)];
  const int64_t cx = static_cast<int64_t>(std::floor(x_m / medium_.grid_cell_m));
  const int64_t cy = static_cast<int64_t>(std::floor(y_m / medium_.grid_cell_m));
  double pph = 0.0;
  for (int64_t dy = -1; dy <= 1; ++dy) {
    for (int64_t dx = -1; dx <= 1; ++dx) {
      auto it = cells.find(LoadCellKey(cx + dx, cy + dy));
      if (it != cells.end()) {
        pph += it->second;
      }
    }
  }
  return pph / 3600.0;
}

double NetworkFabric::RxPowerDbm(const Gateway& gw, const UplinkPacket& packet,
                                 const UplinkParams& params) const {
  const PathLossModel& pl = packet.tech == RadioTech::k802154 ? pl_802154_ : pl_lora_;
  const double dx = params.x_m - gw.config().x_m;
  const double dy = params.y_m - gw.config().y_m;
  const double dist = std::sqrt(dx * dx + dy * dy);
  LinkBudget lb;
  lb.tx_power_dbm = params.tx_power_dbm;
  lb.tx_antenna_gain_db = 0.0;
  lb.rx_antenna_gain_db = gw.config().rx_antenna_gain_db;
  lb.path_loss_db =
      pl.LinkLossDb(dist, RadioLinkSeed(sim_.seed(), packet.device_id, gw.config().id));
  return lb.ReceivedPowerDbm();
}

const NetworkFabric::LinkRow& NetworkFabric::LinkRowFor(const TxRequest& request,
                                                        const PhyModel& phy) {
  const UplinkPacket& packet = request.packet;
  const UplinkParams& params = request.params;
  const LinkKey key{params.x_m, params.y_m, params.tx_power_dbm,
                    packet.tech, params.lora, packet.payload_bytes};
  const auto [it, inserted] = link_rows_.try_emplace(packet.device_id);
  LinkRow& row = it->second;
  if (!inserted && row.key == key) {
    return row;
  }
  row.key = key;
  row.links.clear();

  const double sens = phy.SensitivityDbm();
  auto scan = [&](uint32_t index) {
    Gateway* gw = gateways_[index];
    if (gw->config().tech != packet.tech) {
      return;
    }
    const double rx = RxPowerDbm(*gw, packet, params);
    if (rx >= sens - 3.0) {  // Keep marginal links; PER handles the edge.
      row.links.push_back(
          {gw, index, rx, phy.SnrDb(rx), phy.PacketErrorRate(rx, packet.payload_bytes)});
    }
  };
  if (medium_.grid_buckets) {
    RebuildGridIfNeeded();
    gw_grid_.ForNeighbors(params.x_m, params.y_m, scan);
  } else {
    for (uint32_t index = 0; index < gateways_.size(); ++index) {
      scan(index);
    }
  }
  std::sort(row.links.begin(), row.links.end(),
            [](const LinkEntry& a, const LinkEntry& b) { return a.rx_dbm > b.rx_dbm; });
  return row;
}

DeliveryReport NetworkFabric::Offer(const TxRequest& request, RandomStream& rng) {
  const UplinkPacket& packet = request.packet;
  const UplinkParams& params = request.params;
  ++attempts_;
  DeliveryReport report;
  auto finish = [&](DeliveryOutcome outcome) {
    const size_t idx = static_cast<size_t>(outcome);
    ++outcome_counts_[idx];
    Counter*& metric = outcome_metrics_[static_cast<size_t>(packet.tech)][idx];
    if (metric == nullptr && idx >= static_cast<size_t>(kLegacyDeliveryOutcomeCount)) {
      metric = sim_.MetricCounter(
          "uplink.outcomes",
          MetricLabels{{"tech", RadioTechName(packet.tech)},
                       {"outcome", DeliveryOutcomeName(outcome)}});
    }
    MetricInc(metric);
    report.outcome = outcome;
    return report;
  };

  const PhyModel phy = PhyModel::For(packet.tech, params.lora);

  // --- Channel-activity detection (opt-in, LoRa): listen-before-talk. ---
  // The polite device scans for a co-channel preamble and defers when the
  // neighborhood (grid on) or the whole network (grid off) is loud.
  if (medium_.cad && packet.tech == RadioTech::kLoRa) {
    const double load_hz = LocalOfferedLoadHz(packet.tech, params.x_m, params.y_m);
    const double airtime_s = phy.Airtime(packet.payload_bytes).ToSeconds();
    const double p_idle = std::exp(-load_hz * airtime_s);
    if (!rng.NextBool(p_idle)) {
      return finish(DeliveryOutcome::kCadBusy);
    }
  }

  // --- Access channel: who can hear this frame at all? ---
  const std::vector<LinkEntry>& reachable = LinkRowFor(request, phy).links;
  if (reachable.empty()) {
    return finish(DeliveryOutcome::kNoGatewayInRange);
  }

  // --- Collision: one draw per attempt (interferers are common-mode). ---
  const double load_hz = medium_.grid_buckets
                             ? LocalOfferedLoadHz(packet.tech, params.x_m, params.y_m)
                             : OfferedLoadHz(packet.tech);
  const double p_no_collision =
      phy.ContentionSuccessProbability(load_hz, packet.payload_bytes);
  const bool collided = !rng.NextBool(p_no_collision);

  // --- Per-gateway reception + forwarding, strongest first. ---
  // LoRaWAN-with-server mode: every hearing gateway forwards its copy and
  // is charged for it; the network server dedups to the endpoint.
  const bool server_mode = network_server_ != nullptr && packet.tech == RadioTech::kLoRa;
  bool server_delivered = false;
  bool any_phy_received = false;
  DeliveryOutcome last_gateway_outcome = DeliveryOutcome::kGatewayDown;
  auto note_reception = [&](const LinkEntry& cand, bool via_capture) {
    ++report.witnesses;
    if (report.witnesses == 1) {
      report.gateway_id = cand.gw->config().id;
      report.rssi_dbm = cand.rx_dbm;
      report.snr_db = cand.snr_db;
      report.captured = via_capture;
    }
  };
  for (const LinkEntry& cand : reachable) {
    // Running ambient-power estimate per gateway: every arriving frame
    // nudges the EWMA the SIR capture test reads. Sampled before this
    // frame's own contribution lands.
    double ambient_mw = 0.0;
    if (medium_.sir_capture) {
      double& ewma = capture_ewma_mw_[cand.index];
      ambient_mw = ewma;
      ewma += (DbmToMilliwatts(cand.rx_dbm) - ewma) / 16.0;
    }
    if (rng.NextBool(cand.per)) {
      continue;  // This gateway missed the frame.
    }
    if (collided) {
      // Capture: the strongest candidate may survive a collision.
      bool captures;
      if (medium_.sir_capture) {
        // Deterministic SIR test: survive iff this frame clears the
        // gateway's ambient interference estimate by the margin. An idle
        // band (no frame seen yet, ambient 0 mW) always captures; it is
        // decided before the dB conversion, which has no value at 0 mW.
        captures = cand.gw == reachable.front().gw &&
                   (ambient_mw == 0.0 ||
                    cand.rx_dbm - MilliwattsToDbm(ambient_mw) >= medium_.capture_margin_db);
      } else {
        captures = cand.gw == reachable.front().gw &&
                   rng.NextBool(0.5);  // Even odds vs a peer frame.
      }
      if (!captures) {
        continue;
      }
    }
    any_phy_received = true;
    note_reception(cand, collided);
    const DeliveryOutcome outcome = cand.gw->Accept(packet, params.vendor);
    if (outcome == DeliveryOutcome::kDelivered) {
      if (server_mode) {
        // The gateway's backhaul carried the copy to the network server;
        // the server dedups and records exactly one copy.
        const auto ingest = network_server_->Ingest(packet, cand.gw->config().id, cand.rx_dbm,
                                                    sim_.Now());
        if (ingest.first_copy) {
          server_delivered = endpoint_ == nullptr || endpoint_->operational();
        }
        continue;  // Remaining witnesses still forward (and pay).
      }
      if (endpoint_ == nullptr || !endpoint_->Record(packet, sim_.Now())) {
        return finish(DeliveryOutcome::kEndpointDown);
      }
      return finish(DeliveryOutcome::kDelivered);
    }
    last_gateway_outcome = outcome;
  }

  if (server_delivered) {
    return finish(DeliveryOutcome::kDelivered);
  }
  if (server_mode && network_server_ != nullptr && any_phy_received &&
      endpoint_ != nullptr && !endpoint_->operational()) {
    return finish(DeliveryOutcome::kEndpointDown);
  }
  if (any_phy_received) {
    return finish(last_gateway_outcome);
  }
  return finish(collided ? DeliveryOutcome::kCollision : DeliveryOutcome::kPhyLoss);
}

// --- Class B beacons / CAD retries -------------------------------------

void NetworkFabric::RegisterBeaconListener(DeviceHandle handle) {
  beacon_listeners_.push_back(handle);
}

void NetworkFabric::UnregisterBeaconListener(DeviceHandle handle) {
  auto it = std::find(beacon_listeners_.begin(), beacon_listeners_.end(), handle);
  if (it != beacon_listeners_.end()) {
    beacon_listeners_.erase(it);  // Stable: keeps charge order deterministic.
  }
}

void NetworkFabric::RegisterMediumTimers(TimerTable& timers, DeviceFleet* fleet) {
  timers_ = &timers;
  fleet_ = fleet;
  timers.Register(kMediumBeaconTag, [this](const TimerRecord& rec) {
    beacon_pending_ = false;  // The saved run's pending beacon becomes ours.
    ScheduleBeaconAt(SimTime::Micros(rec.at_us));
  });
  timers.Register(kMediumCadTag, [this](const TimerRecord& rec) {
    ScheduleCadRetry(SimTime::Micros(rec.at_us), rec.a);
  });
}

void NetworkFabric::StartClassBBeacons() {
  ScheduleBeaconAt(sim_.Now() + SimTime::Seconds(LoraPhy::kBeaconPeriodS));
}

void NetworkFabric::ScheduleBeaconAt(SimTime at) {
  if (timers_ == nullptr || beacon_pending_) {
    return;
  }
  beacon_pending_ = true;
  timers_->Schedule(at, kMediumBeaconTag, 0, 0, 0.0, [this] { OnBeaconTimer(); });
}

void NetworkFabric::OnBeaconTimer() {
  beacon_pending_ = false;
  ++beacons_sent_;
  if (fleet_ != nullptr) {
    for (DeviceHandle handle : beacon_listeners_) {
      if (!fleet_->IsLive(handle)) {
        continue;  // Stale handle: unit was removed.
      }
      const uint32_t slot = DeviceFleet::SlotOf(handle);
      if (!fleet_->alive(slot)) {
        continue;  // Dead hardware does not listen.
      }
      fleet_->EnergyConsumeAt(slot, sim_.Now(), LoraPhy::kBeaconRxEnergyJ);
    }
  }
  ScheduleBeaconAt(sim_.Now() + SimTime::Seconds(LoraPhy::kBeaconPeriodS));
}

void NetworkFabric::ScheduleCadRetry(SimTime at, uint64_t device_key) {
  if (timers_ == nullptr) {
    return;
  }
  timers_->Schedule(at, kMediumCadTag, device_key, 0, 0.0, [this, device_key] {
    if (cad_retry_handler_) {
      cad_retry_handler_(device_key);
    }
  });
}

// --- Medium snapshot state ----------------------------------------------

void NetworkFabric::SaveMediumState(ByteWriter& w) const {
  w.U32(1);  // Chunk version.
  w.U64(beacons_sent_);
  w.F64Vec(capture_ewma_mw_);
}

bool NetworkFabric::RestoreMediumState(ByteReader& r) {
  const uint32_t version = r.U32();
  if (version != 1) {
    r.Fail();
    return false;
  }
  beacons_sent_ = r.U64();
  capture_ewma_mw_ = r.F64Vec();
  // Gateways are rebuilt by the restoring driver before or after this
  // call; keep the EWMA column sized either way.
  capture_ewma_mw_.resize(gateways_.size(), 0.0);
  return r.ok();
}

std::array<uint64_t, kTierCount> NetworkFabric::TierAttribution() const {
  std::array<uint64_t, kTierCount> tiers{};
  for (int i = 0; i < kDeliveryOutcomeCount; ++i) {
    const auto outcome = static_cast<DeliveryOutcome>(i);
    if (outcome == DeliveryOutcome::kDelivered) {
      continue;
    }
    tiers[static_cast<size_t>(TierForOutcome(outcome))] += outcome_counts_[i];
  }
  return tiers;
}

}  // namespace centsim
