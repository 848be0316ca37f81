#include "src/core/network_fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>
#include <tuple>
#include <vector>

#include "src/net/backhaul.h"

namespace centsim {
namespace {

class FabricFixture : public ::testing::Test {
 protected:
  FabricFixture()
      : sim_(11),
        fabric_(sim_),
        backhaul_("bh", {SimTime::Years(1000), SimTime::Hours(1)}, RandomStream(1)) {
    fabric_.SetEndpoint(&endpoint_);
  }

  Gateway& AddGateway(RadioTech tech, double x, double y, uint32_t id = 100) {
    GatewayConfig cfg;
    cfg.id = id;
    cfg.tech = tech;
    cfg.x_m = x;
    cfg.y_m = y;
    cfg.name = "gw-" + std::to_string(id);
    gateways_.push_back(
        std::make_unique<Gateway>(sim_, cfg, SeriesSystem::RaspberryPiGateway()));
    Gateway& gw = *gateways_.back();
    gw.AttachBackhaul(&backhaul_);
    gw.Deploy();
    fabric_.AddGateway(&gw);
    return gw;
  }

  UplinkPacket Packet(RadioTech tech, uint32_t device = 1) {
    UplinkPacket pkt;
    pkt.device_id = device;
    pkt.tech = tech;
    pkt.payload_bytes = 12;
    return pkt;
  }

  NetworkFabric::UplinkParams Params(RadioTech tech, double x, double y) {
    NetworkFabric::UplinkParams up;
    up.x_m = x;
    up.y_m = y;
    up.tx_power_dbm = tech == RadioTech::k802154 ? 4.0 : 14.0;
    return up;
  }

  Simulation sim_;
  NetworkFabric fabric_;
  CloudEndpoint endpoint_;
  Backhaul backhaul_;
  std::vector<std::unique_ptr<Gateway>> gateways_;
};

TEST_F(FabricFixture, NearbyDeviceDelivers) {
  AddGateway(RadioTech::k802154, 0, 0);
  RandomStream rng(1);
  int delivered = 0;
  for (int i = 0; i < 100; ++i) {
    if (fabric_.Offer({Packet(RadioTech::k802154), Params(RadioTech::k802154, 30, 0)}, rng)
            .outcome == DeliveryOutcome::kDelivered) {
      ++delivered;
    }
  }
  EXPECT_GT(delivered, 95);
  EXPECT_EQ(endpoint_.total_packets(), static_cast<uint64_t>(delivered));
}

TEST_F(FabricFixture, FarDeviceOutOfRange) {
  AddGateway(RadioTech::k802154, 0, 0);
  RandomStream rng(2);
  const auto outcome =
      fabric_.Offer({Packet(RadioTech::k802154), Params(RadioTech::k802154, 100000, 0)}, rng)
          .outcome;
  EXPECT_EQ(outcome, DeliveryOutcome::kNoGatewayInRange);
}

TEST_F(FabricFixture, LoraReachesFartherThan802154) {
  AddGateway(RadioTech::k802154, 0, 0, 1);
  AddGateway(RadioTech::kLoRa, 0, 0, 2);
  RandomStream rng(3);
  // At 3 km, LoRa SF9 @ 14 dBm should mostly work; 802.15.4 at 4 dBm
  // cannot.
  int lora_ok = 0;
  int wpan_ok = 0;
  for (int i = 0; i < 50; ++i) {
    const DeliveryReport lora =
        fabric_.Offer({Packet(RadioTech::kLoRa, 10 + i), Params(RadioTech::kLoRa, 3000, 0)}, rng);
    lora_ok += lora.outcome == DeliveryOutcome::kDelivered ? 1 : 0;
    const DeliveryReport wpan = fabric_.Offer(
        {Packet(RadioTech::k802154, 10 + i), Params(RadioTech::k802154, 3000, 0)}, rng);
    wpan_ok += wpan.outcome == DeliveryOutcome::kDelivered ? 1 : 0;
  }
  EXPECT_GT(lora_ok, wpan_ok + 10);
}

TEST_F(FabricFixture, TechMismatchIsInvisible) {
  AddGateway(RadioTech::kLoRa, 0, 0);
  RandomStream rng(4);
  const auto outcome =
      fabric_.Offer({Packet(RadioTech::k802154), Params(RadioTech::k802154, 10, 0)}, rng).outcome;
  EXPECT_EQ(outcome, DeliveryOutcome::kNoGatewayInRange);
}

TEST_F(FabricFixture, DownGatewayReported) {
  Gateway& gw = AddGateway(RadioTech::k802154, 0, 0);
  gw.Decommission("test");
  RandomStream rng(5);
  const auto outcome =
      fabric_.Offer({Packet(RadioTech::k802154), Params(RadioTech::k802154, 20, 0)}, rng).outcome;
  EXPECT_EQ(outcome, DeliveryOutcome::kGatewayDown);
}

TEST_F(FabricFixture, SecondGatewayCoversFirstOnesFailure) {
  Gateway& a = AddGateway(RadioTech::k802154, 0, 0, 1);
  AddGateway(RadioTech::k802154, 60, 0, 2);
  a.Decommission("dead");
  RandomStream rng(6);
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    const DeliveryReport report =
        fabric_.Offer({Packet(RadioTech::k802154), Params(RadioTech::k802154, 30, 0)}, rng);
    delivered += report.outcome == DeliveryOutcome::kDelivered ? 1 : 0;
  }
  EXPECT_GT(delivered, 45);
}

TEST_F(FabricFixture, OfferedLoadDrivesCollisions) {
  AddGateway(RadioTech::kLoRa, 0, 0);
  RandomStream rng(7);
  // Saturating load: ~20 frames/s of SF9 airtime -> ALOHA success tiny.
  fabric_.AddOfferedLoad(RadioTech::kLoRa, 20.0 * 3600.0);
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    const DeliveryReport report =
        fabric_.Offer({Packet(RadioTech::kLoRa), Params(RadioTech::kLoRa, 100, 0)}, rng);
    delivered += report.outcome == DeliveryOutcome::kDelivered ? 1 : 0;
  }
  EXPECT_LT(delivered, 120);
  EXPECT_GT(fabric_.OutcomeCount(DeliveryOutcome::kCollision), 0u);
  fabric_.RemoveOfferedLoad(RadioTech::kLoRa, 20.0 * 3600.0);
  EXPECT_DOUBLE_EQ(fabric_.OfferedLoadHz(RadioTech::kLoRa), 0.0);
}

TEST_F(FabricFixture, EndpointDownAttributedToCloud) {
  AddGateway(RadioTech::k802154, 0, 0);
  endpoint_.SetOperational(false);
  RandomStream rng(8);
  const auto outcome =
      fabric_.Offer({Packet(RadioTech::k802154), Params(RadioTech::k802154, 20, 0)}, rng).outcome;
  EXPECT_EQ(outcome, DeliveryOutcome::kEndpointDown);
  const auto tiers = fabric_.TierAttribution();
  EXPECT_EQ(tiers[static_cast<size_t>(Tier::kCloud)], 1u);
}

TEST_F(FabricFixture, AttributionExcludesDelivered) {
  AddGateway(RadioTech::k802154, 0, 0);
  RandomStream rng(9);
  for (int i = 0; i < 20; ++i) {
    fabric_.Offer({Packet(RadioTech::k802154), Params(RadioTech::k802154, 20, 0)}, rng);
  }
  uint64_t attributed = 0;
  for (const auto count : fabric_.TierAttribution()) {
    attributed += count;
  }
  EXPECT_EQ(attributed + fabric_.delivered(), fabric_.attempts());
}

TEST_F(FabricFixture, NetworkServerModeDedupsAndPaysEveryWitness) {
  // Two LoRa hotspots both in range; with a network server every witness
  // forwards (charging its own copy) but the endpoint sees one record.
  Gateway& a = AddGateway(RadioTech::kLoRa, 0, 0, 1);
  Gateway& b = AddGateway(RadioTech::kLoRa, 80, 0, 2);
  uint64_t charges = 0;
  const auto hook = [&charges](const UplinkPacket&) {
    ++charges;
    return true;
  };
  a.SetPaymentHook(hook);
  b.SetPaymentHook(hook);
  NetworkServer ns(&endpoint_);
  fabric_.SetNetworkServer(&ns);

  RandomStream rng(12);
  UplinkPacket pkt = Packet(RadioTech::kLoRa);
  for (int i = 0; i < 50; ++i) {
    pkt.sequence = i + 1;
    fabric_.Offer({pkt, Params(RadioTech::kLoRa, 40, 0)}, rng);
  }
  EXPECT_EQ(endpoint_.total_packets(), ns.frames_forwarded());
  EXPECT_GT(ns.duplicates_suppressed(), 30u);  // Both hotspots usually hear.
  EXPECT_EQ(charges, ns.frames_forwarded() + ns.duplicates_suppressed());
  EXPECT_GT(ns.MeanWitnesses(), 1.5);
}

TEST_F(FabricFixture, NetworkServerModeDoesNotAffect802154) {
  AddGateway(RadioTech::k802154, 0, 0, 1);
  NetworkServer ns(&endpoint_);
  fabric_.SetNetworkServer(&ns);
  RandomStream rng(13);
  UplinkPacket pkt = Packet(RadioTech::k802154);
  for (int i = 0; i < 20; ++i) {
    pkt.sequence = i + 1;
    fabric_.Offer({pkt, Params(RadioTech::k802154, 20, 0)}, rng);
  }
  EXPECT_EQ(ns.frames_forwarded(), 0u);  // Owned path bypasses the server.
  EXPECT_GT(endpoint_.total_packets(), 15u);
}

TEST_F(FabricFixture, DeterministicGivenSeedAndSequence) {
  AddGateway(RadioTech::k802154, 0, 0);
  RandomStream rng_a(42);
  RandomStream rng_b(42);
  for (int i = 0; i < 50; ++i) {
    const NetworkFabric::TxRequest req{Packet(RadioTech::k802154, 5),
                                       Params(RadioTech::k802154, 400, 0)};
    const auto a = fabric_.Offer(req, rng_a).outcome;
    const auto b = fabric_.Offer(req, rng_b).outcome;
    EXPECT_EQ(a, b);
  }
}

// --- Link rows: a served fabric answers like a fresh one ------------------
//
// Offer builds each device's link row once and reuses it. A fabric that has
// served frames, gained gateways, changed path loss and been reconfigured
// must answer every frame exactly as a fabric built fresh with the same
// setup answers its first frame: the same report bits and the same rng
// draws. Gateways have no backhaul, so every reception ends kBackhaulDown,
// each frame walks its whole row and nothing downstream keeps state. SIR
// capture is left off: its ambient estimate is history by design.

struct FabricSetup {
  PathLossModel pl_802154 = PathLossModel::Urban24GHz();
  PathLossModel pl_lora = PathLossModel::Urban915MHz();
  MediumConfig medium;
  std::vector<Gateway*> gateways;

  void BuildInto(NetworkFabric& fabric) const {
    fabric.SetPathLoss(RadioTech::k802154, pl_802154);
    fabric.SetPathLoss(RadioTech::kLoRa, pl_lora);
    fabric.ConfigureMedium(medium);
    for (Gateway* gw : gateways) {
      fabric.AddGateway(gw);
    }
    // Enough load for collisions and CAD deferrals; the load bins use the
    // grid cell, which every phase keeps at 1 km.
    fabric.AddOfferedLoadAt(RadioTech::kLoRa, 10000.0, 0.0, 0.0);
    fabric.AddOfferedLoadAt(RadioTech::k802154, 40000.0, 0.0, 0.0);
  }
};

NetworkFabric::TxRequest RowRequest(uint32_t id, RadioTech tech, double x, double y,
                                    uint32_t payload, double tx_dbm,
                                    LoraSf sf = LoraSf::kSf9) {
  NetworkFabric::TxRequest req;
  req.packet.device_id = id;
  req.packet.tech = tech;
  req.packet.payload_bytes = payload;
  req.params.x_m = x;
  req.params.y_m = y;
  req.params.tx_power_dbm = tx_dbm;
  req.params.lora.sf = sf;
  return req;
}

TEST(LinkRowIdentityTest, ServedFabricAnswersLikeAFreshOne) {
  Simulation sim(41);
  std::vector<std::unique_ptr<Gateway>> owned;
  auto make_gateway = [&](RadioTech tech, double x, double y) -> Gateway* {
    GatewayConfig cfg;
    cfg.id = 500 + static_cast<uint32_t>(owned.size());
    cfg.tech = tech;
    cfg.x_m = x;
    cfg.y_m = y;
    owned.push_back(std::make_unique<Gateway>(sim, cfg, SeriesSystem::RaspberryPiGateway()));
    owned.back()->Deploy();
    return owned.back().get();
  };

  FabricSetup setup;
  setup.medium.grid_cell_m = 1000.0;
  for (const auto& [tech, x, y] :
       std::vector<std::tuple<RadioTech, double, double>>{{RadioTech::kLoRa, 0, 0},
                                                          {RadioTech::kLoRa, 3000, 0},
                                                          {RadioTech::kLoRa, 0, 2500},
                                                          {RadioTech::kLoRa, -4000, -4000},
                                                          {RadioTech::k802154, 0, 0},
                                                          {RadioTech::k802154, 60, 0},
                                                          {RadioTech::k802154, 0, 90}}) {
    setup.gateways.push_back(make_gateway(tech, x, y));
  }

  // Each cycle repeats these frames, so a row built before a setup change
  // is offered again after it. Device 1 moves every frame; devices 6-9
  // alternate one key field (payload, TX power, spreading factor, tech).
  // Device 6's two payloads differ in PER only far below any draw's
  // resolution (in-range 802.15.4 links have PER ~0), so it checks that a
  // rebuilt row answers correctly, not that the payload is in the key.
  const std::vector<NetworkFabric::TxRequest> cycle = {
      RowRequest(1, RadioTech::k802154, 20, 10, 12, 4.0),
      RowRequest(1, RadioTech::k802154, 70, 45, 12, 4.0),
      RowRequest(2, RadioTech::kLoRa, 100, 200, 12, 14.0),
      RowRequest(3, RadioTech::kLoRa, 2500, 1800, 12, 14.0),
      RowRequest(4, RadioTech::k802154, 95, 60, 12, 4.0),
      RowRequest(5, RadioTech::kLoRa, -3000, -2000, 40, 14.0, LoraSf::kSf12),
      RowRequest(6, RadioTech::k802154, 110, 20, 12, 4.0),
      RowRequest(6, RadioTech::k802154, 110, 20, 100, 4.0),
      RowRequest(7, RadioTech::kLoRa, 5200, 300, 12, 14.0),
      RowRequest(7, RadioTech::kLoRa, 5200, 300, 12, 2.0),
      RowRequest(8, RadioTech::kLoRa, 4000, 3500, 12, 14.0, LoraSf::kSf7),
      RowRequest(8, RadioTech::kLoRa, 4000, 3500, 12, 14.0, LoraSf::kSf12),
      RowRequest(9, RadioTech::k802154, 50, 50, 12, 14.0),
      RowRequest(9, RadioTech::kLoRa, 50, 50, 12, 14.0),
  };

  NetworkFabric served(sim);
  setup.BuildInto(served);
  RandomStream rng(77);
  std::array<uint64_t, kDeliveryOutcomeCount> outcomes{};
  auto run_phase = [&](const char* phase) {
    for (int rep = 0; rep < 6; ++rep) {
      for (size_t k = 0; k < cycle.size(); ++k) {
        NetworkFabric fresh(sim);
        setup.BuildInto(fresh);
        RandomStream fresh_rng = rng;
        const DeliveryReport a = served.Offer(cycle[k], rng);
        const DeliveryReport b = fresh.Offer(cycle[k], fresh_rng);
        SCOPED_TRACE(testing::Message() << phase << " rep " << rep << " frame " << k);
        EXPECT_EQ(a.outcome, b.outcome);
        EXPECT_EQ(a.gateway_id, b.gateway_id);
        EXPECT_EQ(std::bit_cast<uint64_t>(a.rssi_dbm), std::bit_cast<uint64_t>(b.rssi_dbm));
        EXPECT_EQ(std::bit_cast<uint64_t>(a.snr_db), std::bit_cast<uint64_t>(b.snr_db));
        EXPECT_EQ(a.witnesses, b.witnesses);
        EXPECT_EQ(a.captured, b.captured);
        const RandomStream::State sa = rng.SaveState();
        const RandomStream::State sb = fresh_rng.SaveState();
        EXPECT_TRUE(std::equal(std::begin(sa.s), std::end(sa.s), std::begin(sb.s)));
        ++outcomes[static_cast<size_t>(a.outcome)];
      }
    }
  };

  run_phase("initial");
  for (Gateway* gw : {make_gateway(RadioTech::kLoRa, 2600, 1900),
                      make_gateway(RadioTech::k802154, 100, 40)}) {
    setup.gateways.push_back(gw);
    served.AddGateway(gw);
  }
  run_phase("after AddGateway");
  PathLossModel::Params lora_pl = setup.pl_lora.params();
  lora_pl.exponent = 2.9;
  setup.pl_lora = PathLossModel(lora_pl);
  served.SetPathLoss(RadioTech::kLoRa, setup.pl_lora);
  PathLossModel::Params wpan_pl = setup.pl_802154.params();
  wpan_pl.reference_loss_db = 43.0;
  setup.pl_802154 = PathLossModel(wpan_pl);
  served.SetPathLoss(RadioTech::k802154, setup.pl_802154);
  run_phase("after SetPathLoss");
  setup.medium.grid_buckets = true;
  served.ConfigureMedium(setup.medium);
  run_phase("grid buckets");
  setup.medium.cad = true;
  served.ConfigureMedium(setup.medium);
  run_phase("grid buckets and CAD");
  setup.medium = MediumConfig{};
  setup.medium.grid_cell_m = 1000.0;
  served.ConfigureMedium(setup.medium);
  run_phase("default medium");

  // The frames reached every branch the rows feed.
  for (const DeliveryOutcome o :
       {DeliveryOutcome::kNoGatewayInRange, DeliveryOutcome::kPhyLoss,
        DeliveryOutcome::kCollision, DeliveryOutcome::kBackhaulDown, DeliveryOutcome::kCadBusy}) {
    EXPECT_GT(outcomes[static_cast<size_t>(o)], 0u) << DeliveryOutcomeName(o);
  }
}

}  // namespace
}  // namespace centsim
