#include "src/core/network_fabric.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace centsim
