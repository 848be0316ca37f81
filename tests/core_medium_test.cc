// Medium API redesign coverage: Offer/DeliveryReport, the MediumConfig
// fidelity knobs (grid buckets, SIR capture, CAD), class B/C device
// behavior, and the snapshot round trip for medium-owned state + timers.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/device.h"
#include "src/core/fleet.h"
#include "src/core/network_fabric.h"
#include "src/energy/harvester.h"
#include "src/net/backhaul.h"
#include "src/snapshot/timer_table.h"

namespace centsim {
namespace {

class MediumFixture : public ::testing::Test {
 protected:
  MediumFixture()
      : sim_(29),
        fabric_(sim_),
        backhaul_("bh", {SimTime::Years(1000), SimTime::Hours(1)}, RandomStream(2)) {
    fabric_.SetEndpoint(&endpoint_);
  }

  Gateway& AddGateway(RadioTech tech, double x, double y, uint32_t id,
                      NetworkFabric* fabric = nullptr) {
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
    (fabric != nullptr ? *fabric : fabric_).AddGateway(&gw);
    return gw;
  }

  NetworkFabric::TxRequest LoraRequest(uint32_t device, double x, double y) {
    NetworkFabric::TxRequest req;
    req.packet.device_id = device;
    req.packet.tech = RadioTech::kLoRa;
    req.packet.payload_bytes = 12;
    req.params.x_m = x;
    req.params.y_m = y;
    req.params.tx_power_dbm = 14.0;
    return req;
  }

  Simulation sim_;
  NetworkFabric fabric_;
  CloudEndpoint endpoint_;
  Backhaul backhaul_;
  std::vector<std::unique_ptr<Gateway>> gateways_;
};

TEST_F(MediumFixture, OfferReportsPhysicalDetail) {
  AddGateway(RadioTech::kLoRa, 0, 0, 7);
  RandomStream rng(1);
  const DeliveryReport report = fabric_.Offer(LoraRequest(1, 40, 0), rng);
  ASSERT_TRUE(report.Delivered());
  EXPECT_EQ(report.gateway_id, 7u);
  EXPECT_EQ(report.witnesses, 1u);
  EXPECT_FALSE(report.captured);
  EXPECT_LT(report.rssi_dbm, 0.0);
  EXPECT_GT(report.rssi_dbm, -120.0);
  // SNR is RSSI above the LoRa noise floor at 125 kHz (NF 6 dB).
  EXPECT_NEAR(report.snr_db, report.rssi_dbm - NoiseFloorDbm(125e3, 6.0), 1e-12);
}

TEST_F(MediumFixture, CadDefersWhenBandSaturated) {
  AddGateway(RadioTech::kLoRa, 0, 0, 7);
  MediumConfig medium;
  medium.cad = true;
  fabric_.ConfigureMedium(medium);
  // ~30 frames/s of SF9 airtime: P(idle) = exp(-load * airtime) ~ 0.
  fabric_.AddOfferedLoad(RadioTech::kLoRa, 30.0 * 3600.0);
  RandomStream rng(4);
  uint64_t busy = 0;
  for (int i = 0; i < 100; ++i) {
    busy += fabric_.Offer(LoraRequest(1, 50, 0), rng).outcome == DeliveryOutcome::kCadBusy;
  }
  EXPECT_GT(busy, 95u);
  EXPECT_EQ(fabric_.OutcomeCount(DeliveryOutcome::kCadBusy), busy);
  // CAD never touches 802.15.4 (it is a LoRa radio feature here).
  AddGateway(RadioTech::k802154, 0, 0, 8);
  NetworkFabric::TxRequest wpan;
  wpan.packet.tech = RadioTech::k802154;
  wpan.params.x_m = 20;
  wpan.params.tx_power_dbm = 4.0;
  EXPECT_NE(fabric_.Offer(wpan, rng).outcome, DeliveryOutcome::kCadBusy);
}

TEST_F(MediumFixture, SirCaptureFavorsTheStrongSignal) {
  AddGateway(RadioTech::kLoRa, 0, 0, 7);
  MediumConfig medium;
  medium.sir_capture = true;
  fabric_.ConfigureMedium(medium);
  // Saturate: essentially every frame overlaps an interferer.
  fabric_.AddOfferedLoad(RadioTech::kLoRa, 30.0 * 3600.0);
  RandomStream rng(6);
  // Traffic mix: one near (strong) frame per eight far (weak) ones. The
  // gateway's ambient estimate settles well below the strong frames and
  // far above the weak ones, so capture is signal strength, not a coin.
  // (A device that *dominates* the traffic pulls the ambient up to its own
  // level and stops capturing — that is the intended self-limit, so the
  // strong sender must stay a minority here.)
  uint64_t strong_attempts = 0, strong_delivered = 0;
  uint64_t weak_attempts = 0, weak_delivered = 0;
  for (int i = 0; i < 88; ++i) {
    const bool strong = i % 8 == 0;
    const DeliveryReport r =
        fabric_.Offer(LoraRequest(strong ? 1 : 2, strong ? 10.0 : 1500.0, 0), rng);
    if (strong) {
      ++strong_attempts;
      if (r.Delivered()) {
        ++strong_delivered;
        EXPECT_TRUE(r.captured);
      }
    } else {
      ++weak_attempts;
      weak_delivered += r.Delivered();
    }
  }
  EXPECT_EQ(strong_attempts, 11u);
  EXPECT_GE(strong_delivered, 10u);
  // The weak frames cannot clear the SIR margin over that ambient.
  EXPECT_LT(weak_delivered, weak_attempts / 8);
}

TEST_F(MediumFixture, GridBucketsLimitCandidatesToNeighborhood) {
  // Two gateways 30 km apart give the grid real extent (a lone gateway
  // collapses to one cell, whose clamped neighborhood covers everything).
  AddGateway(RadioTech::kLoRa, 0, 0, 7);
  AddGateway(RadioTech::kLoRa, 30000, 0, 9);
  RandomStream rng(8);
  // Full scan: a 2.5 km LoRa link works.
  EXPECT_TRUE(fabric_.Offer(LoraRequest(1, 2500, 0), rng).Delivered());
  // Grid with 500 m cells: the 3x3 neighborhood around the transmitter's
  // cell reaches at most ~1 km, so it sees no gateway at all.
  MediumConfig medium;
  medium.grid_buckets = true;
  medium.grid_cell_m = 500.0;
  fabric_.ConfigureMedium(medium);
  EXPECT_EQ(fabric_.Offer(LoraRequest(1, 2500, 0), rng).outcome,
            DeliveryOutcome::kNoGatewayInRange);
  // With cells sized to the radio range the link is back.
  medium.grid_cell_m = 3000.0;
  fabric_.ConfigureMedium(medium);
  EXPECT_TRUE(fabric_.Offer(LoraRequest(1, 2500, 0), rng).Delivered());
}

TEST_F(MediumFixture, LocalOfferedLoadIsPerNeighborhood) {
  MediumConfig medium;
  medium.grid_buckets = true;
  medium.grid_cell_m = 1000.0;
  fabric_.ConfigureMedium(medium);
  fabric_.AddOfferedLoadAt(RadioTech::kLoRa, 3600.0, 100.0, 100.0);
  fabric_.AddOfferedLoadAt(RadioTech::kLoRa, 7200.0, 50000.0, 50000.0);
  // Global aggregate sees both registrations.
  EXPECT_NEAR(fabric_.OfferedLoadHz(RadioTech::kLoRa), 3.0 / 3600.0 * 3600.0, 1e-9);
  // Each neighborhood sees only its own.
  EXPECT_NEAR(fabric_.LocalOfferedLoadHz(RadioTech::kLoRa, 120.0, 120.0), 1.0, 1e-9);
  EXPECT_NEAR(fabric_.LocalOfferedLoadHz(RadioTech::kLoRa, 50100.0, 50100.0), 2.0, 1e-9);
  EXPECT_NEAR(fabric_.LocalOfferedLoadHz(RadioTech::kLoRa, 25000.0, 25000.0), 0.0, 1e-12);
  fabric_.RemoveOfferedLoadAt(RadioTech::kLoRa, 3600.0, 100.0, 100.0);
  EXPECT_NEAR(fabric_.LocalOfferedLoadHz(RadioTech::kLoRa, 120.0, 120.0), 0.0, 1e-12);
}

TEST_F(MediumFixture, ClassCLoadProfileRaisesSleepFloor) {
  EdgeDeviceConfig cfg;
  cfg.tech = RadioTech::kLoRa;
  cfg.tx_power_dbm = 14.0;
  const double base_sleep = LoadProfileFor(cfg).sleep_power_w;
  cfg.lora_class = LoraDeviceClass::kClassC;
  const double class_c_sleep = LoadProfileFor(cfg).sleep_power_w;
  EXPECT_NEAR(class_c_sleep - base_sleep, LoraPhy::kRxListenPowerW, 1e-12);
  // 802.15.4 ignores the LoRa receive class.
  cfg.tech = RadioTech::k802154;
  cfg.tx_power_dbm = 4.0;
  EXPECT_EQ(LoadProfileFor(cfg).sleep_power_w, base_sleep);
}

TEST_F(MediumFixture, ClassBBeaconsChargeListenersThroughTimerTable) {
  AddGateway(RadioTech::kLoRa, 0, 0, 7);
  DeviceFleet fleet(sim_);
  TimerTable timers(sim_.scheduler());
  fabric_.RegisterMediumTimers(timers, &fleet);

  EdgeDeviceConfig cfg;
  cfg.id = 1;
  cfg.x_m = 40;
  cfg.tech = RadioTech::kLoRa;
  cfg.tx_power_dbm = 14.0;
  cfg.lora_class = LoraDeviceClass::kClassB;
  cfg.report_interval = SimTime::Days(30);  // Reports out of the picture.
  // No harvest: every joule spent is visible in the charge level.
  EnergyManager energy(HarvesterModel::Constant(0.0), EnergyStorage::Supercap(),
                       LoadProfileFor(cfg));
  EdgeDevice dev(sim_, cfg, fabric_, fleet, std::move(energy),
                 SeriesSystem::EnergyHarvestingNode());
  dev.Deploy();
  EXPECT_EQ(fabric_.beacon_listener_count(), 1u);

  fabric_.StartClassBBeacons();
  const double charge_before = dev.energy().storage().charge_j();
  sim_.RunUntil(SimTime::Hours(6));
  // 6 h at one beacon per 128 s.
  EXPECT_GE(fabric_.beacons_sent(), 167u);
  EXPECT_LE(fabric_.beacons_sent(), 169u);
  const double drop = charge_before - dev.energy().storage().charge_j();
  const double beacon_total =
      static_cast<double>(fabric_.beacons_sent()) * LoraPhy::kBeaconRxEnergyJ;
  EXPECT_GE(drop, beacon_total);            // Beacons were paid for...
  EXPECT_LE(drop, beacon_total + 0.3);      // ...plus sleep and at most one report.
}

TEST_F(MediumFixture, MediumStateAndTimersRoundTripThroughSnapshot) {
  // Build a medium with a pending beacon and a pending CAD retry, save at
  // t = 300 s, restore into a fresh fabric, and check the continuation
  // fires the same timers and reports the same counters.
  TimerTable timers(sim_.scheduler());
  fabric_.RegisterMediumTimers(timers, nullptr);
  std::vector<uint64_t> retried;
  fabric_.SetCadRetryHandler([&](uint64_t key) { retried.push_back(key); });
  fabric_.StartClassBBeacons();                        // Fires at 128, 256, ...
  fabric_.ScheduleCadRetry(SimTime::Seconds(50), 77);  // Fires pre-save.
  sim_.RunUntil(SimTime::Seconds(300));
  fabric_.ScheduleCadRetry(SimTime::Seconds(400), 99);  // Pending at save.
  ASSERT_EQ(retried, std::vector<uint64_t>({77}));
  EXPECT_EQ(fabric_.beacons_sent(), 2u);

  // Save: medium chunk + timer records.
  ByteWriter w;
  fabric_.SaveMediumState(w);
  const std::vector<TimerRecord> records = timers.Save();
  ASSERT_EQ(records.size(), 2u);  // One beacon, one CAD retry.

  // Restore into a fresh simulation/fabric.
  Simulation sim2(29);
  NetworkFabric fabric2(sim2);
  TimerTable timers2(sim2.scheduler());
  fabric2.RegisterMediumTimers(timers2, nullptr);
  std::vector<uint64_t> retried2;
  fabric2.SetCadRetryHandler([&](uint64_t key) { retried2.push_back(key); });
  ByteReader r(w.bytes().data(), w.bytes().size());
  ASSERT_TRUE(fabric2.RestoreMediumState(r));
  EXPECT_EQ(fabric2.beacons_sent(), 2u);
  EXPECT_EQ(timers2.Restore(records), 0u);  // No unknown tags.

  // Both runs continue to t = 600 s: beacon at 384 and 512, CAD at 400.
  sim_.RunUntil(SimTime::Seconds(600));
  sim2.RunUntil(SimTime::Seconds(600));
  EXPECT_EQ(fabric_.beacons_sent(), 4u);
  EXPECT_EQ(fabric2.beacons_sent(), 4u);
  EXPECT_EQ(retried2, std::vector<uint64_t>({99}));
}

TEST_F(MediumFixture, CaptureEwmaSurvivesSnapshotBitExactly) {
  // Prime a SIR-capture fabric's ambient estimate, save the medium chunk,
  // restore into a twin, and drive both with identical RNG streams: every
  // report must match bit-for-bit, which only happens if the EWMA columns
  // round-tripped exactly.
  MediumConfig medium;
  medium.sir_capture = true;
  fabric_.ConfigureMedium(medium);
  AddGateway(RadioTech::kLoRa, 0, 0, 7);
  fabric_.AddOfferedLoad(RadioTech::kLoRa, 30.0 * 3600.0);
  RandomStream prime_rng(11);
  for (int i = 0; i < 25; ++i) {
    fabric_.Offer(LoraRequest(2, 1200, 0), prime_rng);
  }

  ByteWriter w;
  fabric_.SaveMediumState(w);

  NetworkFabric fabric2(sim_);
  fabric2.SetEndpoint(&endpoint_);  // Same server path as the original.
  fabric2.ConfigureMedium(medium);
  AddGateway(RadioTech::kLoRa, 0, 0, 7, &fabric2);
  fabric2.AddOfferedLoad(RadioTech::kLoRa, 30.0 * 3600.0);
  ByteReader r(w.bytes().data(), w.bytes().size());
  ASSERT_TRUE(fabric2.RestoreMediumState(r));

  RandomStream rng_a(21);
  RandomStream rng_b(21);
  for (int i = 0; i < 40; ++i) {
    const uint32_t device = i % 2 == 0 ? 1 : 2;
    const double x = device == 1 ? 10.0 : 1200.0;
    const DeliveryReport a = fabric_.Offer(LoraRequest(device, x, 0), rng_a);
    const DeliveryReport b = fabric2.Offer(LoraRequest(device, x, 0), rng_b);
    EXPECT_EQ(a.outcome, b.outcome) << i;
    EXPECT_EQ(a.rssi_dbm, b.rssi_dbm) << i;
    EXPECT_EQ(a.captured, b.captured) << i;
    EXPECT_EQ(a.witnesses, b.witnesses) << i;
  }
}

}  // namespace
}  // namespace centsim
