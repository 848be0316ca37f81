// DeviceFleet tests: generation-tagged handle semantics, class interning,
// fleet-level metrics, the zero-allocation steady report path,
// golden-digest parity pins for the fleet-backed district and century
// drivers against reports captured from the object-graph seed, and pins
// of the sampled and sharded engines and the checkpoint writers.

#include "src/core/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/century_model.h"
#include "src/core/device.h"
#include "src/core/district.h"
#include "src/core/network_fabric.h"
#include "src/core/theseus.h"
#include "src/sim/alloc_probe.h"
#include "src/sim/metrics.h"
#include "src/sim/thread_pool.h"
#include "src/telemetry/run_manifest.h"

namespace centsim {
namespace {

DeviceClassSpec TestSpec(const char* name = "test-class") {
  DeviceClassSpec spec;
  spec.name = name;
  spec.hardware = SeriesSystem::EnergyHarvestingNode();
  return spec;
}

TEST(DeviceHandleTest, PackRoundTrips) {
  const DeviceHandle h = DeviceFleet::Pack(7, 42);
  EXPECT_EQ(DeviceFleet::SlotOf(h), 7u);
  EXPECT_EQ(DeviceFleet::GenerationOf(h), 42u);
  EXPECT_NE(h, kInvalidDeviceHandle);
}

TEST(DeviceFleetTest, AddAssignsSequentialSlotsOnFreshFleet) {
  Simulation sim(1);
  DeviceFleet fleet(sim);
  const uint32_t cls = fleet.InternClass(TestSpec());
  for (uint32_t i = 0; i < 10; ++i) {
    const DeviceHandle h = fleet.Add(cls, i, 0.0, 0, HarvesterModel());
    EXPECT_EQ(DeviceFleet::SlotOf(h), i);
    EXPECT_TRUE(fleet.IsLive(h));
  }
  EXPECT_EQ(fleet.size(), 10u);
}

TEST(DeviceFleetTest, RemoveStalesHandleAndRecyclesSlotLifo) {
  Simulation sim(1);
  DeviceFleet fleet(sim);
  const uint32_t cls = fleet.InternClass(TestSpec());
  const DeviceHandle a = fleet.Add(cls, 0, 0, 0, HarvesterModel());
  const DeviceHandle b = fleet.Add(cls, 1, 0, 0, HarvesterModel());
  fleet.Remove(b);
  EXPECT_FALSE(fleet.IsLive(b));
  EXPECT_TRUE(fleet.IsLive(a));

  // LIFO recycling: the freed slot is reused with a bumped generation, so
  // the old handle stays stale forever.
  const DeviceHandle c = fleet.Add(cls, 2, 0, 0, HarvesterModel());
  EXPECT_EQ(DeviceFleet::SlotOf(c), DeviceFleet::SlotOf(b));
  EXPECT_NE(DeviceFleet::GenerationOf(c), DeviceFleet::GenerationOf(b));
  EXPECT_TRUE(fleet.IsLive(c));
  EXPECT_FALSE(fleet.IsLive(b));
  EXPECT_DOUBLE_EQ(fleet.x(DeviceFleet::SlotOf(c)), 2.0);
}

TEST(DeviceFleetTest, ReusedSlotStateIsFullyReinitialized) {
  Simulation sim(1);
  DeviceFleet fleet(sim);
  const uint32_t cls = fleet.InternClass(TestSpec());
  const DeviceHandle a = fleet.Add(cls, 0, 0, 0, HarvesterModel());
  const uint32_t slot = DeviceFleet::SlotOf(a);
  fleet.DeployAt(slot, sim.Now());
  fleet.MarkFailedAt(slot, sim.Now());
  EXPECT_EQ(fleet.unit_generation(slot), 1u);
  fleet.Remove(a);

  const DeviceHandle b = fleet.Add(cls, 5, 6, 3, HarvesterModel::Constant(0.01));
  ASSERT_EQ(DeviceFleet::SlotOf(b), slot);
  EXPECT_FALSE(fleet.alive(slot));
  EXPECT_EQ(fleet.unit_generation(slot), 0u);
  EXPECT_EQ(fleet.zone(slot), 3u);
  EXPECT_EQ(fleet.tx_granted(slot), 0u);
  EXPECT_EQ(fleet.failure_event(slot), kInvalidEventId);
}

TEST(DeviceFleetTest, HandlesSurviveColumnGrowth) {
  Simulation sim(1);
  DeviceFleet fleet(sim);
  const uint32_t cls = fleet.InternClass(TestSpec());
  const DeviceHandle first = fleet.Add(cls, 123.0, 456.0, 0, HarvesterModel());
  // Grow far past any initial vector capacity; handles are indices, so the
  // first handle must stay live and its columns intact.
  for (uint32_t i = 0; i < 5000; ++i) {
    fleet.Add(cls, i, i, 0, HarvesterModel());
  }
  EXPECT_TRUE(fleet.IsLive(first));
  EXPECT_DOUBLE_EQ(fleet.x(DeviceFleet::SlotOf(first)), 123.0);
  EXPECT_DOUBLE_EQ(fleet.y(DeviceFleet::SlotOf(first)), 456.0);
  EXPECT_EQ(fleet.size(), 5001u);
}

TEST(DeviceFleetTest, InternClassDeduplicatesByContent) {
  Simulation sim(1);
  DeviceFleet fleet(sim);
  const uint32_t a = fleet.InternClass(TestSpec());
  const uint32_t b = fleet.InternClass(TestSpec());
  EXPECT_EQ(a, b);
  DeviceClassSpec other = TestSpec();
  other.tx_power_dbm = 14.0;
  EXPECT_NE(fleet.InternClass(other), a);
  EXPECT_EQ(fleet.class_count(), 2u);
}

TEST(DeviceFleetTest, LifecycleTransitionsTrackAliveCount) {
  Simulation sim(1);
  DeviceFleet fleet(sim);
  const uint32_t cls = fleet.InternClass(TestSpec());
  fleet.Add(cls, 0, 0, 0, HarvesterModel());
  fleet.Add(cls, 1, 0, 0, HarvesterModel());
  fleet.DeployAt(0, sim.Now());
  fleet.DeployAt(1, sim.Now());
  EXPECT_EQ(fleet.alive_count(), 2u);
  fleet.MarkFailedAt(0, sim.Now());
  fleet.RetireAt(1);
  EXPECT_EQ(fleet.alive_count(), 0u);
}

TEST(DeviceFleetTest, FleetMetricsExposeGaugesWithoutPerDeviceCardinality) {
  Simulation sim(1);
  MetricsRegistry registry;
  sim.SetMetrics(&registry);
  DeviceFleet fleet(sim);
  const uint32_t cls = fleet.InternClass(TestSpec("acme-v1"));
  for (uint32_t i = 0; i < 100; ++i) {
    fleet.Add(cls, i, 0, 0, HarvesterModel());
    fleet.DeployAt(i, sim.Now());
  }
  fleet.EnableFleetMetrics();
  Gauge* alive = registry.GetGauge("fleet.alive_devices", {});
  ASSERT_NE(alive, nullptr);
  EXPECT_EQ(alive->value(), 100);
  fleet.MarkFailedAt(7, sim.Now());
  EXPECT_EQ(alive->value(), 99);
  fleet.CountReplacementAt(7);
  Counter* repl = registry.GetCounter("fleet.replacements", {{"class", "acme-v1"}});
  ASSERT_NE(repl, nullptr);
  EXPECT_EQ(repl->value(), 1.0);
  EXPECT_EQ(fleet.class_replacements(cls), 1u);
  // 100 devices, a handful of instruments: no per-device label explosion.
  EXPECT_LT(registry.size(), 16u);
  sim.SetMetrics(nullptr);
}

TEST(DeviceFleetTest, PerDeviceColumnFootprintStaysUnderBudget) {
  Simulation sim(1);
  DeviceFleet fleet(sim);
  const uint32_t cls = fleet.InternClass(TestSpec());
  fleet.Reserve(10000);
  for (uint32_t i = 0; i < 10000; ++i) {
    fleet.Add(cls, i, 0, 0, HarvesterModel());
  }
  // Edge devices: <= ~200 bytes of fleet state per device.
  EXPECT_LE(fleet.BytesPerDevice(), 200.0);
  EXPECT_GT(fleet.BytesPerDevice(), 0.0);
}

// Lifecycle-only sites (the century's and the district's) allocate the
// core columns alone: 49 bytes per slot.
TEST(DeviceFleetTest, LifecycleOnlySitesStayUnder64BytesPerSlot) {
  Simulation sim(1);
  DeviceFleet fleet(sim);
  const uint32_t cls = fleet.InternClass(TestSpec());
  fleet.Reserve(10000);
  for (uint32_t i = 0; i < 10000; ++i) {
    fleet.AddSite(cls, i % 7);
  }
  EXPECT_LE(fleet.BytesPerDevice(), 64.0);
  EXPECT_GT(fleet.BytesPerDevice(), 0.0);
  EXPECT_EQ(fleet.size(), 10000u);
  EXPECT_EQ(fleet.zone(9), 2u);
}

DeviceClassSpec StorageSpec() {
  DeviceClassSpec spec = TestSpec("storage-class");
  spec.storage.capacity_j = 7.25;
  spec.storage.initial_fraction = 0.3;
  return spec;
}

void ExpectSameSlotState(const DeviceFleet::SlotState& a, const DeviceFleet::SlotState& b) {
  EXPECT_EQ(a.alive, b.alive);
  EXPECT_EQ(a.handle_generation, b.handle_generation);
  EXPECT_EQ(a.unit_generation, b.unit_generation);
  EXPECT_EQ(a.deployed_at_us, b.deployed_at_us);
  EXPECT_EQ(a.failed_at_us, b.failed_at_us);
  EXPECT_EQ(a.deadline_us, b.deadline_us);
  EXPECT_EQ(a.covering, b.covering);
  EXPECT_EQ(a.charge_j, b.charge_j);
  EXPECT_EQ(a.capacity_now_j, b.capacity_now_j);
  EXPECT_EQ(a.energy_last_update_us, b.energy_last_update_us);
  EXPECT_EQ(a.energy_last_advance_us, b.energy_last_advance_us);
  EXPECT_EQ(a.tx_granted, b.tx_granted);
  EXPECT_EQ(a.tx_denied, b.tx_denied);
}

// A lifecycle-only slot's checkpoint state is the one an untouched edge
// slot of its class saves, so the fleet chunk keeps every byte; restoring
// one ignores the energy fields.
TEST(DeviceFleetTest, LifecycleOnlySlotSavesAsAnUntouchedEdgeSlot) {
  Simulation sim(1);
  DeviceFleet sites(sim);
  DeviceFleet edge(sim);
  const uint32_t site_cls = sites.InternClass(StorageSpec());
  const uint32_t edge_cls = edge.InternClass(StorageSpec());
  sites.AddSite(site_cls, 3);
  sites.AddSite(site_cls, 4);
  edge.Add(edge_cls, 10.0, 20.0, 3, HarvesterModel());
  edge.Add(edge_cls, 30.0, 40.0, 4, HarvesterModel());
  for (DeviceFleet* fleet : {&sites, &edge}) {
    fleet->DeployAt(0, SimTime::Days(2));
    fleet->set_deadline(0, SimTime::Years(9));
    fleet->DeployAt(1, SimTime::Days(1));
    fleet->MarkFailedAt(1, SimTime::Days(5));
  }
  for (uint32_t slot = 0; slot < 2; ++slot) {
    ExpectSameSlotState(sites.SaveSlotState(slot), edge.SaveSlotState(slot));
  }
  const DeviceFleet::SlotState untouched = edge.SaveSlotState(0);
  EXPECT_EQ(untouched.charge_j, 7.25 * 0.3);
  EXPECT_EQ(untouched.capacity_now_j, 7.25);

  DeviceFleet::SlotState changed = edge.SaveSlotState(1);
  changed.unit_generation = 6;
  changed.charge_j = 1.0;
  changed.energy_last_advance_us = 77;
  changed.tx_granted = 5;
  sites.RestoreSlotState(1, changed);
  const DeviceFleet::SlotState restored = sites.SaveSlotState(1);
  EXPECT_EQ(restored.unit_generation, 6u);
  EXPECT_EQ(restored.charge_j, untouched.charge_j);
  EXPECT_EQ(restored.energy_last_advance_us, 0);
  EXPECT_EQ(restored.tx_granted, 0u);
}

TEST(DeviceFleetTest, MixingLifecycleOnlyAndEdgeAddsAborts) {
  Simulation sim(1);
  DeviceFleet sites(sim);
  const uint32_t site_cls = sites.InternClass(TestSpec());
  sites.AddSite(site_cls, 0);
  EXPECT_DEATH(sites.Add(site_cls, 0.0, 0.0, 0, HarvesterModel()), "lifecycle-only sites");
  // A freed lifecycle-only slot does not make room for an edge device.
  sites.Remove(DeviceFleet::Pack(0, 1));
  EXPECT_DEATH(sites.Add(site_cls, 0.0, 0.0, 0, HarvesterModel()), "lifecycle-only sites");

  DeviceFleet edge(sim);
  const uint32_t edge_cls = edge.InternClass(TestSpec());
  edge.Add(edge_cls, 0.0, 0.0, 0, HarvesterModel());
  EXPECT_DEATH(edge.AddSite(edge_cls, 0), "edge devices");
}

// The district's and the century's fleets hold lifecycle-only sites.
TEST(DeviceFleetTest, DistrictAndCenturyFleetsStayUnder64BytesPerSite) {
  DistrictConfig district;
  district.seed = 5;
  district.device_count = 3000;
  district.area_km2 = 4.0;
  district.zone_grid = 2;
  district.horizon = SimTime::Years(2);
  const DistrictReport serial = RunDistrictScenario(district);
  EXPECT_LE(serial.fleet_bytes_per_device, 64.0);
  EXPECT_GT(serial.fleet_bytes_per_device, 0.0);
  district.shard.shards = 2;
  const DistrictReport sharded = RunDistrictScenario(district);
  EXPECT_LE(sharded.fleet_bytes_per_device, 64.0);
  EXPECT_GT(sharded.fleet_bytes_per_device, 0.0);

  CenturyConfig century;
  century.seed = 5;
  century.fleet_size = 3000;
  century.horizon = SimTime::Years(2);
  Simulation sim(century.seed);
  CenturyReport report;
  const CenturyModel model(sim, century, report, 0, century.fleet_size, nullptr);
  EXPECT_LE(model.fleet().BytesPerDevice(), 64.0);
  EXPECT_GT(model.fleet().BytesPerDevice(), 0.0);
}

// --- Facade handle semantics --------------------------------------------

class FleetDeviceFixture : public ::testing::Test {
 protected:
  FleetDeviceFixture() : sim_(99), fabric_(sim_) {}

  std::unique_ptr<EdgeDevice> MakeDevice(uint32_t id) {
    EdgeDeviceConfig cfg;
    cfg.id = id;
    cfg.tech = RadioTech::k802154;
    cfg.tx_power_dbm = 4.0;
    cfg.report_interval = SimTime::Hours(1);
    EnergyManager energy(HarvesterModel::Constant(0.05), EnergyStorage::Supercap(),
                         LoadProfileFor(cfg));
    return std::make_unique<EdgeDevice>(sim_, cfg, fabric_, fleet_, std::move(energy),
                                        SeriesSystem::EnergyHarvestingNode());
  }

  Simulation sim_;
  NetworkFabric fabric_;
  DeviceFleet fleet_{sim_};
};

TEST_F(FleetDeviceFixture, ReplaceUnitKeepsHandleAndBumpsUnitGeneration) {
  auto dev = MakeDevice(1);
  const DeviceHandle h = dev->handle();
  dev->Deploy();
  EXPECT_EQ(dev->unit_generation(), 1u);
  dev->ReplaceUnit();
  // A unit swap at the same site does NOT stale the site handle — the slot
  // and handle generation are untouched; only the unit generation moves.
  EXPECT_EQ(dev->handle(), h);
  EXPECT_TRUE(fleet_.IsLive(h));
  EXPECT_EQ(dev->unit_generation(), 2u);
}

TEST_F(FleetDeviceFixture, DestructionStalesHandle) {
  auto dev = MakeDevice(2);
  const DeviceHandle h = dev->handle();
  dev->Deploy();
  ASSERT_TRUE(fleet_.IsLive(h));
  dev.reset();
  EXPECT_FALSE(fleet_.IsLive(h));
  EXPECT_EQ(fleet_.size(), 0u);
}

TEST_F(FleetDeviceFixture, DevicesOfSameMakeShareOneClass) {
  auto d1 = MakeDevice(1);
  auto d2 = MakeDevice(2);
  EXPECT_EQ(d1->device_class(), d2->device_class());
  EXPECT_EQ(fleet_.class_count(), 1u);
}

TEST_F(FleetDeviceFixture, SteadyStateReportPathAddsZeroHeapAllocations) {
  if (!AllocProbeEnabled()) {
    GTEST_SKIP() << "allocation probe disabled (sanitizer build)";
  }
  auto dev = MakeDevice(3);
  dev->Deploy();
  // Warm up: first reports grow the event pool and any lazy structures.
  sim_.RunUntil(SimTime::Days(10));
  AllocScope scope;
  sim_.RunUntil(SimTime::Days(40));
  EXPECT_GT(dev->attempts(), 700u);  // ~24/day for 30 days.
  EXPECT_EQ(scope.delta(), 0u);
}

TEST_F(FleetDeviceFixture, ReportPathWithGatewayInRangeAddsZeroHeapAllocations) {
  if (!AllocProbeEnabled()) {
    GTEST_SKIP() << "allocation probe disabled (sanitizer build)";
  }
  // An 802.15.4 gateway 20 m away with no backhaul: every frame reaches
  // the candidate loop, draws its PER and ends kBackhaulDown at the gateway.
  GatewayConfig gc;
  gc.id = 900;
  gc.tech = RadioTech::k802154;
  gc.x_m = 20.0;
  Gateway gw(sim_, gc, SeriesSystem::RaspberryPiGateway());
  gw.Deploy();
  fabric_.AddGateway(&gw);
  auto dev = MakeDevice(4);
  dev->Deploy();
  sim_.RunUntil(SimTime::Days(10));
  AllocScope scope;
  sim_.RunUntil(SimTime::Days(40));
  EXPECT_GT(fabric_.OutcomeCount(DeliveryOutcome::kBackhaulDown), 600u);
  EXPECT_EQ(scope.delta(), 0u);
}

// --- Golden parity pins ---------------------------------------------------
//
// Report digests captured from the object-graph seed (commit a761589, seed
// 20260806) before the fleet refactor; the fleet-backed drivers must
// reproduce every bit. Re-pin only with a statistical-equivalence
// justification in DESIGN.md. The century digest moved once, when its
// availability integral became exact integers, and the district digest
// moved once for the same reason (availability bits only; see DESIGN.md,
// "Digest-parity strategy").
constexpr const char* kGoldenDistrictDigest = "4e1001a7cba2ca13";
constexpr const char* kGoldenCenturyDigest = "01f81cad8cd9b9ed";

TEST(FleetGoldenTest, DistrictReportMatchesObjectGraphSeed) {
  DistrictConfig cfg;
  cfg.seed = 20260806;
  cfg.device_count = 1500;
  cfg.area_km2 = 9.0;
  cfg.zone_grid = 3;
  cfg.horizon = SimTime::Years(50);
  const DistrictReport r = RunDistrictScenario(cfg);
  std::ostringstream out;
  out << std::hexfloat;
  out << r.gateway_count << '|' << r.initial_coverage << '|' << r.mean_device_availability
      << '|' << r.mean_service_availability << '|' << r.min_yearly_service << '|'
      << r.device_failures << '|' << r.device_replacements << '|' << r.gateway_failures
      << '|' << r.gateway_repairs;
  for (double v : r.yearly_service) {
    out << '|' << v;
  }
  const std::string digest = ConfigDigest(out.str());
  std::printf("district parity digest: %s\n", digest.c_str());
  EXPECT_EQ(digest, kGoldenDistrictDigest);
}

TEST(FleetGoldenTest, CenturyReportMatchesObjectGraphSeed) {
  CenturyConfig cfg;
  cfg.seed = 20260806;
  cfg.fleet_size = 800;
  cfg.horizon = SimTime::Years(100);
  cfg.proactive_refresh_age = SimTime::Years(25);
  cfg.life_improvement_per_decade = 1.05;
  const CenturyReport r = RunCenturyScenario(cfg);
  std::ostringstream out;
  out << std::hexfloat;
  out << r.mean_availability << '|' << r.min_yearly_availability << '|' << r.total_failures
      << '|' << r.total_replacements << '|' << r.proactive_replacements << '|'
      << r.units_deployed << '|' << r.max_unit_generations;
  for (double v : r.yearly_availability) {
    out << '|' << v;
  }
  const std::string digest = ConfigDigest(out.str());
  std::printf("century parity digest: %s\n", digest.c_str());
  EXPECT_EQ(digest, kGoldenCenturyDigest);
}

// The serial district draws device lives in parallel batches once a batch
// reaches SeriesSystem::kParallelLifeGrain keys. Of the other district
// pins, only the roll-out of the 1,500-site golden above reaches it, and
// none of their zone visits do; this run's roll-out and zone visits
// (29,930 replacements) do. Recorded from one-at-a-time draws, before the
// draws were batched; re-pinned once when the district's integrals became
// exact integers.
TEST(EnginePinTest, SerialDistrictBatchedDraws) {
  DistrictConfig cfg;
  cfg.seed = 20260806;
  cfg.device_count = 40000;
  cfg.area_km2 = 250.0;
  cfg.zone_grid = 2;
  cfg.horizon = SimTime::Years(24);
  const DistrictReport r = RunDistrictScenario(cfg);
  std::ostringstream out;
  out << std::hexfloat;
  out << r.gateway_count << '|' << r.initial_coverage << '|' << r.mean_device_availability
      << '|' << r.mean_service_availability << '|' << r.min_yearly_service << '|'
      << r.device_failures << '|' << r.device_replacements << '|' << r.gateway_failures
      << '|' << r.gateway_repairs;
  for (double v : r.yearly_service) {
    out << '|' << v;
  }
  const std::string digest = ConfigDigest(out.str());
  std::printf("serial district batched-draw pin: %s\n", digest.c_str());
  EXPECT_EQ(r.device_replacements, 29930u);
  EXPECT_EQ(digest, "656f8e2ac0ec0a8f");
}

// --- Engine parity pins ---------------------------------------------------
//
// The serial pins above cover only the default engine. These pin the
// sampled and sharded engines' full reports (plus the sampling accounting,
// the event count and, for the century, every Kaplan-Meier observation in
// order), captured from the per-engine drivers (commit 59ae618) before
// they were rebuilt over one shared model per scenario. A moved result in
// any engine fails here even when its invariance tests still agree with
// themselves. Re-pin only with the same justification the serial pins need.

void AppendSampling(std::ostringstream& out, bool sampled, uint32_t windows, int64_t skipped_us,
                    bool converged, const std::vector<MetricCi>& cis, uint64_t events) {
  out << '|' << sampled << '|' << windows << '|' << skipped_us << '|' << converged;
  for (const MetricCi& ci : cis) {
    out << '|' << ci.name << ':' << ci.mean << ':' << ci.ci_half_width << ':' << ci.windows;
  }
  out << '|' << events;
}

std::string DistrictPin(const DistrictReport& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << r.gateway_count << '|' << r.initial_coverage << '|' << r.mean_device_availability
      << '|' << r.mean_service_availability << '|' << r.min_yearly_service << '|'
      << r.device_failures << '|' << r.device_replacements << '|' << r.gateway_failures
      << '|' << r.gateway_repairs;
  for (double v : r.yearly_service) {
    out << '|' << v;
  }
  AppendSampling(out, r.sampled, r.windows_measured, r.sim_skipped_us, r.ci_converged,
                 r.metric_cis, r.events_executed);
  return ConfigDigest(out.str());
}

// With `sorted_observations`, the Kaplan-Meier observations enter as their
// sorted multiset instead of in order.
std::string CenturyPin(const CenturyReport& r, bool sorted_observations = false) {
  std::ostringstream out;
  out << std::hexfloat;
  out << r.mean_availability << '|' << r.min_yearly_availability << '|' << r.total_failures
      << '|' << r.total_replacements << '|' << r.proactive_replacements << '|'
      << r.units_deployed << '|' << r.max_unit_generations;
  for (double v : r.yearly_availability) {
    out << '|' << v;
  }
  std::vector<SurvivalObservation> observations;
  r.unit_survival.ForEachObservation(
      [&observations](const SurvivalObservation& o) { observations.push_back(o); });
  if (sorted_observations) {
    std::sort(observations.begin(), observations.end(),
              [](const SurvivalObservation& a, const SurvivalObservation& b) {
                return a.time != b.time ? a.time < b.time : a.failed && !b.failed;
              });
  }
  for (const SurvivalObservation& o : observations) {
    out << '|' << o.time.micros() << (o.failed ? 'f' : 'c');
  }
  AppendSampling(out, r.sampled, r.windows_measured, r.sim_skipped_us, r.ci_converged,
                 r.metric_cis, r.events_executed);
  return ConfigDigest(out.str());
}

SamplingPlan PinSampling() {
  SamplingPlan plan;
  plan.mode = SimMode::kSampled;
  plan.detailed_window = SimTime::Days(14);
  plan.sample_period = SimTime::Days(140);
  plan.min_windows = 4;
  plan.ci_target = 0.05;
  return plan;
}

DistrictConfig PinDistrict() {
  DistrictConfig cfg;
  cfg.seed = 20260806;
  cfg.device_count = 600;
  cfg.area_km2 = 4.0;
  cfg.zone_grid = 3;
  cfg.horizon = SimTime::Years(20);
  cfg.gateway_range_m = 700.0;
  cfg.batch_cycle = SimTime::Years(5);
  return cfg;
}

CenturyConfig PinCentury() {
  CenturyConfig cfg;
  cfg.seed = 20260806;
  cfg.fleet_size = 300;
  cfg.horizon = SimTime::Years(60);
  cfg.batch.zone_count = 6;
  cfg.batch.cycle_period = SimTime::Years(5);
  return cfg;
}

// Re-pinned once when the district's integrals, and the window samples
// taken from them, became exact integers (DESIGN.md, "Digest-parity
// strategy").
TEST(EnginePinTest, SampledDistrict) {
  DistrictConfig cfg = PinDistrict();
  cfg.sampling = PinSampling();
  const std::string digest = DistrictPin(RunDistrictScenario(cfg));
  std::printf("sampled district pin: %s\n", digest.c_str());
  EXPECT_EQ(digest, "35be9abf33707009");
}

TEST(EnginePinTest, ShardedDistrictAtThreeShards) {
  DistrictConfig cfg = PinDistrict();
  cfg.shard.shards = 3;
  const std::string digest = DistrictPin(RunDistrictScenario(cfg));
  std::printf("sharded district pin: %s\n", digest.c_str());
  EXPECT_EQ(digest, "6dfdf848810a5d3b");
}

// The detailed century with proactive refresh and longer later lives:
// every report field, the Kaplan-Meier observations in order and the event
// count (687 events: 615 failures, 599 replacements, 485 proactive).
// Without refresh, PinCentury() reads b5f4a3771c5b3b33 over 1,000 events.
TEST(EnginePinTest, SerialCentury) {
  CenturyConfig cfg = PinCentury();
  const CenturyReport plain = RunCenturyScenario(cfg);
  cfg.proactive_refresh_age = SimTime::Years(15);
  cfg.life_improvement_per_decade = 1.05;
  const CenturyReport r = RunCenturyScenario(cfg);
  const std::string digest = CenturyPin(r);
  std::printf("serial century pin: %s\n", digest.c_str());
  EXPECT_EQ(r.events_executed, 687u);
  EXPECT_EQ(r.total_failures, 615u);
  EXPECT_EQ(r.total_replacements, 599u);
  EXPECT_EQ(r.proactive_replacements, 485u);
  EXPECT_EQ(digest, "e2381777bf78e4aa");
  EXPECT_EQ(plain.events_executed, 1000u);
  EXPECT_EQ(CenturyPin(plain), "b5f4a3771c5b3b33");
}

// Proactive refresh puts refresh entries on the transition calendar
// (re-pin justified in DESIGN.md, "Walk order contract and look-ahead").
TEST(EnginePinTest, SampledCenturyProactiveRefresh) {
  CenturyConfig cfg = PinCentury();
  cfg.proactive_refresh_age = SimTime::Years(15);
  cfg.life_improvement_per_decade = 1.05;
  cfg.sampling = PinSampling();
  const std::string digest = CenturyPin(RunCenturyScenario(cfg));
  std::printf("sampled century (proactive refresh) pin: %s\n", digest.c_str());
  EXPECT_EQ(digest, "f9ef2d1bc583c707");
}

// No proactive refresh: failure and revive entries only.
TEST(EnginePinTest, SampledCenturyCalendar) {
  CenturyConfig cfg = PinCentury();
  cfg.sampling = PinSampling();
  const std::string digest = CenturyPin(RunCenturyScenario(cfg));
  std::printf("sampled century (calendar) pin: %s\n", digest.c_str());
  EXPECT_EQ(digest, "fe3653f6d8aaa4c5");
}

// 50k sites on 3-day rounds put about a hundred transitions into each
// 14-day calendar bucket, so the walk's look-ahead runs; the pins above use
// 300 sites. A sampled checkpoint at year 20, resumed to the horizon, is
// pinned as well and reaches the straight run's totals.
TEST(EnginePinTest, SampledCenturyCalendarLargeFleet) {
  namespace fs = std::filesystem;
  CenturyConfig cfg = PinCentury();
  cfg.fleet_size = 50000;
  cfg.horizon = SimTime::Years(40);
  cfg.batch.zone_count = 16;
  cfg.batch.cycle_period = SimTime::Days(3);
  cfg.sampling = PinSampling();
  const std::string dir = testing::TempDir() + "pin_century_large";
  fs::remove_all(dir);
  cfg.snapshot.checkpoint_every = SimTime::Years(20);
  cfg.snapshot.checkpoint_dir = dir;
  const CenturyReport straight = RunCenturyScenario(cfg);
  ASSERT_EQ(straight.checkpoints_written, 1u);
  CenturyConfig resume = cfg;
  resume.snapshot = SnapshotPlan{};
  resume.snapshot.resume_from = straight.last_checkpoint_path;
  const CenturyReport resumed = RunCenturyScenario(resume);
  fs::remove_all(dir);
  EXPECT_EQ(resumed.total_failures, straight.total_failures);
  EXPECT_EQ(resumed.total_replacements, straight.total_replacements);
  EXPECT_EQ(resumed.units_deployed, straight.units_deployed);
  const std::string straight_pin = CenturyPin(straight);
  const std::string resumed_pin = CenturyPin(resumed);
  std::printf("sampled century (calendar, 50k sites) pins: %s resumed %s\n",
              straight_pin.c_str(), resumed_pin.c_str());
  EXPECT_EQ(straight_pin, "1e5f69acbc8bef74");
  EXPECT_EQ(resumed_pin, "8703fd540953ab2a");
}

// Above one walk block: 140,000 sites walk as blocks of 65,536, 65,536 and
// 8,928 sites. Yearly rounds keep a fully detailed run of it cheap.
CenturyConfig PinCenturyBlocks() {
  CenturyConfig cfg = PinCentury();
  cfg.fleet_size = 140000;
  cfg.horizon = SimTime::Years(30);
  cfg.batch.zone_count = 16;
  cfg.batch.cycle_period = SimTime::Years(1);
  cfg.proactive_refresh_age = SimTime::Years(15);
  cfg.life_improvement_per_decade = 1.05;
  cfg.sampling = PinSampling();
  return cfg;
}

// The blocks keep the one-block walk's report: the first pin, with the
// observations as their sorted multiset, was recorded before the walk was
// split into blocks. The second pins the whole report with the
// observations in block order.
TEST(EnginePinTest, SampledCenturyBlocks) {
  const CenturyReport r = RunCenturyScenario(PinCenturyBlocks());
  const std::string multiset = CenturyPin(r, /*sorted_observations=*/true);
  const std::string in_order = CenturyPin(r);
  std::printf("sampled century (3 walk blocks) pins: %s in order %s\n", multiset.c_str(),
              in_order.c_str());
  EXPECT_GT(r.proactive_replacements, 0u);
  EXPECT_EQ(multiset, "946eb360c507e697");
  EXPECT_EQ(in_order, "0984f62339dac775");
}

// A run on a pool worker (an ensemble replica, a branch) walks its blocks
// inline and starts no thread; its report is the pooled run's, observation
// order included.
TEST(EnginePinTest, SampledCenturyBlocksInlineOnWorker) {
  const CenturyConfig cfg = PinCenturyBlocks();
  const std::string pooled = CenturyPin(RunCenturyScenario(cfg));
  const uint64_t started = ThreadPool::WorkersStarted();
  std::string inline_pin;
  {
    ThreadPool pool(1);
    pool.Submit([&cfg, &inline_pin] { inline_pin = CenturyPin(RunCenturyScenario(cfg)); });
    pool.Wait();
  }
  EXPECT_EQ(ThreadPool::WorkersStarted() - started, 1u);  // The test's own worker.
  EXPECT_EQ(inline_pin, pooled);
}

// The sharded district drains its lanes on the caller and on up to
// `workers` - 1 pool threads. With workers = 1, and on a pool worker (an
// ensemble replica, a branch), it starts no thread; with workers = 0 on
// the main thread, one per lane up to the CPUs, the caller included. The
// report is the same in every case.
TEST(EnginePinTest, ShardedDistrictDrainsOnTheCaller) {
  DistrictConfig cfg = PinDistrict();
  cfg.shard.shards = 3;
  const auto threads_started = [](const auto& run) {
    const uint64_t before = ThreadPool::WorkersStarted();
    run();
    return ThreadPool::WorkersStarted() - before;
  };

  cfg.shard.workers = 1;
  std::string one_worker;
  EXPECT_EQ(threads_started([&] { one_worker = DistrictPin(RunDistrictScenario(cfg)); }), 0u);
  EXPECT_EQ(one_worker, "6dfdf848810a5d3b");

  cfg.shard.workers = 0;
  std::string pooled;
  EXPECT_EQ(threads_started([&] { pooled = DistrictPin(RunDistrictScenario(cfg)); }),
            std::min(3u, ThreadPool::DefaultThreadCount()) - 1);
  EXPECT_EQ(pooled, one_worker);

  std::string on_worker;
  EXPECT_EQ(threads_started([&] {
              ThreadPool pool(1);
              pool.Submit([&] { on_worker = DistrictPin(RunDistrictScenario(cfg)); });
              pool.Wait();
            }),
            1u);  // The test's own worker.
  EXPECT_EQ(on_worker, one_worker);
}

// Every checkpoint file a run writes, in barrier order, folded into one
// digest: pins the `district`, `district-shard` and `century` layouts byte
// for byte (the snapshot tests only prove a writer and its reader agree).
template <typename Config, typename Run>
std::string CheckpointBytesPin(Config cfg, SimTime every, const std::string& name, Run run) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  cfg.snapshot.checkpoint_every = every;
  cfg.snapshot.checkpoint_dir = dir;
  const auto report = run(cfg);
  EXPECT_GT(report.checkpoints_written, 1u);
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  std::string bytes;
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    bytes.append(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  fs::remove_all(dir);
  return ConfigDigest(bytes);
}

TEST(EnginePinTest, CheckpointFilesByteIdentical) {
  MetricsRegistry registry;
  DistrictConfig district = PinDistrict();
  district.metrics = &registry;
  const std::string serial_district = CheckpointBytesPin(
      district, SimTime::Years(6), "pin_district",
      [](const DistrictConfig& c) { return RunDistrictScenario(c); });

  DistrictConfig sharded = PinDistrict();
  sharded.shard.shards = 2;
  const std::string sharded_district = CheckpointBytesPin(
      sharded, SimTime::Years(6), "pin_district_shard",
      [](const DistrictConfig& c) { return RunDistrictScenario(c); });

  CenturyConfig century = PinCentury();
  century.proactive_refresh_age = SimTime::Years(15);
  const std::string serial_century = CheckpointBytesPin(
      century, SimTime::Years(20), "pin_century",
      [](const CenturyConfig& c) { return RunCenturyScenario(c); });

  century.sampling = PinSampling();
  const std::string sampled_century = CheckpointBytesPin(
      century, SimTime::Years(20), "pin_century_sampled",
      [](const CenturyConfig& c) { return RunCenturyScenario(c); });

  std::printf("checkpoint pins: %s %s %s %s\n", serial_district.c_str(),
              sharded_district.c_str(), serial_century.c_str(), sampled_century.c_str());
  EXPECT_EQ(serial_district, "ac7235ccea5c082f");
  EXPECT_EQ(sharded_district, "4c5b9b031f091f55");
  EXPECT_EQ(serial_century, "26f835143bd58d2f");
  EXPECT_EQ(sampled_century, "b089476b4a58f01d");
}

}  // namespace
}  // namespace centsim
