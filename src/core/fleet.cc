#include "src/core/fleet.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace centsim {
namespace {

void AppendDouble(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a|", v);  // Hexfloat: lossless, locale-free.
  out += buf;
}

void AppendInt(std::string& out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64 "|", v);
  out += buf;
}

// Content key for class interning: every field that changes device
// behaviour, in a fixed order. Hardware hazard models are identified by
// their component class/name lists — the BOM factories produce value-equal
// hazards for equal names.
std::string InternKey(const DeviceClassSpec& spec) {
  std::string key;
  key.reserve(256);
  key += spec.name;
  key += '|';
  AppendInt(key, static_cast<int64_t>(spec.tech));
  AppendInt(key, static_cast<int64_t>(spec.lora.sf));
  AppendDouble(key, spec.lora.bandwidth_hz);
  AppendInt(key, spec.lora.coding_rate);
  AppendInt(key, spec.lora.preamble_symbols);
  AppendInt(key, spec.lora.explicit_header ? 1 : 0);
  AppendInt(key, spec.lora.low_data_rate_optimize_auto ? 1 : 0);
  AppendInt(key, spec.lora.crc_on ? 1 : 0);
  AppendDouble(key, spec.tx_power_dbm);
  AppendInt(key, spec.report_interval.micros());
  AppendInt(key, spec.payload_bytes);
  key += spec.vendor;
  key += '|';
  AppendInt(key, static_cast<int64_t>(spec.coupling));
  AppendInt(key, static_cast<int64_t>(spec.sensor_kind));
  AppendInt(key, static_cast<int64_t>(spec.rx_class));
  AppendDouble(key, spec.load.sleep_power_w);
  AppendDouble(key, spec.load.tx_energy_j);
  AppendDouble(key, spec.load.sense_energy_j);
  AppendDouble(key, spec.load.brownout_reserve_j);
  AppendDouble(key, spec.storage.capacity_j);
  AppendDouble(key, spec.storage.initial_fraction);
  AppendDouble(key, spec.storage.charge_efficiency);
  AppendDouble(key, spec.storage.self_discharge_per_day);
  AppendDouble(key, spec.storage.capacity_fade_per_year);
  key += spec.storage.name;
  key += '|';
  for (const auto& component : spec.hardware.components()) {
    AppendInt(key, static_cast<int64_t>(component.cls));
    key += component.name;
    key += '|';
  }
  return key;
}

[[noreturn]] void DieMixedFleet(const char* what) {
  std::fprintf(stderr, "DeviceFleet: %s; a fleet holds one kind of slot\n", what);
  std::abort();
}

}  // namespace

uint32_t DeviceFleet::InternClass(const DeviceClassSpec& spec) {
  const std::string key = InternKey(spec);
  auto it = class_index_.find(key);
  if (it != class_index_.end()) {
    return it->second;
  }
  const uint32_t id = static_cast<uint32_t>(classes_.size());
  ClassRecord record;
  record.spec = spec;
  // Shared per-tech instruments, created in the order the per-device
  // constructors used to create them (metrics files preserve first-creation
  // order, so this order is part of the golden-digest contract).
  const MetricLabels labels{{"tech", RadioTechName(spec.tech)}};
  record.failures = sim_.MetricCounter("device.failures", labels);
  record.replacements = sim_.MetricCounter("device.replacements", labels);
  // tx_denied before tx_granted: the legacy BindMetrics call site evaluated
  // its arguments right-to-left, and metrics files preserve creation order.
  record.energy.denied = sim_.MetricCounter("energy.tx_denied", labels);
  record.energy.granted = sim_.MetricCounter("energy.tx_granted", labels);
  record.energy.harvest_j = sim_.MetricHistogram("energy.harvest_j", labels);
  if (fleet_metrics_enabled_) {
    BindFleetMetricsFor(record);
  }
  classes_.push_back(std::move(record));
  class_index_.emplace(key, id);
  return id;
}

void DeviceFleet::Reserve(size_t devices) {
  handle_gen_.reserve(devices);
  class_.reserve(devices);
  zone_.reserve(devices);
  alive_.reserve(devices);
  unit_gen_.reserve(devices);
  deployed_at_.reserve(devices);
  failed_at_.reserve(devices);
  deadline_.reserve(devices);
  failure_event_.reserve(devices);
}

DeviceHandle DeviceFleet::AddCore(uint32_t cls, uint32_t zone) {
  uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<uint32_t>(handle_gen_.size());
    handle_gen_.push_back(1);
    class_.push_back(cls);
    zone_.push_back(zone);
    alive_.push_back(0);
    unit_gen_.push_back(0);
    deployed_at_.push_back(SimTime());
    failed_at_.push_back(SimTime());
    deadline_.push_back(SimTime());
    failure_event_.push_back(kInvalidEventId);
  } else {
    slot = free_.back();
    free_.pop_back();
    class_[slot] = cls;
    zone_[slot] = zone;
    alive_[slot] = 0;
    unit_gen_[slot] = 0;
    deployed_at_[slot] = SimTime();
    failed_at_[slot] = SimTime();
    deadline_[slot] = SimTime();
    failure_event_[slot] = kInvalidEventId;
  }
  return Pack(slot, handle_gen_[slot]);
}

DeviceHandle DeviceFleet::Add(uint32_t cls, double x_m, double y_m, uint32_t zone,
                              const HarvesterModel& harvester) {
  if (energy_.size() != handle_gen_.size()) {
    DieMixedFleet("Add(cls, x, y, zone, harvester) on a fleet of lifecycle-only sites");
  }
  const DeviceHandle h = AddCore(cls, zone);
  const uint32_t slot = SlotOf(h);
  const EnergyColumn energy{EnergyStorage::InitialState(classes_[cls].spec.storage), SimTime()};
  if (slot == energy_.size()) {
    const size_t capacity = handle_gen_.capacity();
    x_.reserve(capacity);
    y_.reserve(capacity);
    energy_.reserve(capacity);
    tx_.reserve(capacity);
    harvester_.reserve(capacity);
    x_.push_back(x_m);
    y_.push_back(y_m);
    energy_.push_back(energy);
    tx_.push_back(EnergyCounters{});
    harvester_.push_back(harvester);
  } else {
    x_[slot] = x_m;
    y_[slot] = y_m;
    energy_[slot] = energy;
    tx_[slot] = EnergyCounters{};
    harvester_[slot] = harvester;
  }
  return h;
}

DeviceHandle DeviceFleet::AddSite(uint32_t cls, uint32_t zone) {
  if (has_edge()) {
    DieMixedFleet("AddSite(cls, zone) on a fleet of edge devices");
  }
  return AddCore(cls, zone);
}

DeviceHandle DeviceFleet::AddSites(const DeploymentPlan& plan, uint32_t cls, uint32_t begin,
                                   uint32_t end) {
  DeviceHandle first = kInvalidDeviceHandle;
  Reserve(capacity() + (end - begin));
  for (uint32_t i = begin; i < end; ++i) {
    const DeviceHandle h = AddSite(cls, plan.sites()[i].zone);
    if (first == kInvalidDeviceHandle) {
      first = h;
    }
  }
  return first;
}

void DeviceFleet::Remove(DeviceHandle h) {
  if (!IsLive(h)) {
    return;
  }
  const uint32_t slot = SlotOf(h);
  if (alive_[slot] != 0) {
    alive_[slot] = 0;
    --alive_count_;
    MetricSet(alive_gauge_, static_cast<double>(alive_count_));
  }
  BumpGeneration(slot);
  free_.push_back(slot);
}

void DeviceFleet::DeployAt(uint32_t slot, SimTime at) {
  if (alive_[slot] == 0) {
    alive_[slot] = 1;
    ++alive_count_;
    MetricSet(alive_gauge_, static_cast<double>(alive_count_));
  }
  ++unit_gen_[slot];
  deployed_at_[slot] = at;
}

void DeviceFleet::RetireAt(uint32_t slot) {
  if (alive_[slot] != 0) {
    alive_[slot] = 0;
    --alive_count_;
    MetricSet(alive_gauge_, static_cast<double>(alive_count_));
  }
}

void DeviceFleet::MarkFailedAt(uint32_t slot, SimTime at) {
  if (alive_[slot] != 0) {
    alive_[slot] = 0;
    --alive_count_;
    MetricSet(alive_gauge_, static_cast<double>(alive_count_));
  }
  failed_at_[slot] = at;
  MetricInc(classes_[class_[slot]].failures);
}

void DeviceFleet::CountReplacementAt(uint32_t slot) {
  ClassRecord& record = classes_[class_[slot]];
  ++record.replacement_count;
  MetricInc(record.replacements);
  MetricInc(record.fleet_replacements);
}

void DeviceFleet::EnergyAdvanceTo(uint32_t slot, SimTime now) {
  const ClassRecord& record = classes_[class_[slot]];
  EnergyColumn& e = energy_[slot];
  EnergyOps::AdvanceTo(harvester_[slot], record.spec.storage, record.spec.load, e.storage,
                       e.last_advance, record.energy, now);
}

bool DeviceFleet::EnergyTryTransmit(uint32_t slot, SimTime now) {
  const ClassRecord& record = classes_[class_[slot]];
  EnergyColumn& e = energy_[slot];
  return EnergyOps::TryTransmit(harvester_[slot], record.spec.storage, record.spec.load,
                                e.storage, e.last_advance, tx_[slot], record.energy, now);
}

void DeviceFleet::EnergyConsumeAt(uint32_t slot, SimTime now, double joules) {
  EnergyAdvanceTo(slot, now);
  EnergyStorage::State& state = energy_[slot].storage;
  state.charge_j =
      std::min(std::max(state.charge_j - joules, 0.0), state.capacity_now_j);
}

FastForwardResult DeviceFleet::FastForwardEnergyAt(uint32_t slot, SimTime to) {
  const ClassRecord& record = classes_[class_[slot]];
  EnergyColumn& e = energy_[slot];
  return EnergyOps::FastForwardTo(harvester_[slot], record.spec.storage, record.spec.load,
                                  e.storage, e.last_advance, tx_[slot], record.energy, to,
                                  record.spec.report_interval);
}

SimTime DeviceFleet::EstimateNextAffordableAt(uint32_t slot, SimTime now, double joules) const {
  const ClassRecord& record = classes_[class_[slot]];
  return EnergyOps::EstimateNextAffordable(harvester_[slot], record.spec.storage,
                                           record.spec.load, energy_[slot].storage, now, joules);
}

DeviceFleet::SlotState DeviceFleet::SaveSlotState(uint32_t slot) const {
  SlotState s;
  s.alive = alive_[slot];
  s.handle_generation = handle_gen_[slot];
  s.unit_generation = unit_gen_[slot];
  s.deployed_at_us = deployed_at_[slot].micros();
  s.failed_at_us = failed_at_[slot].micros();
  s.deadline_us = alive_[slot] != 0 ? deadline_[slot].micros() : 0;
  // A lifecycle-only slot writes what an untouched edge slot holds.
  const EnergyStorage::State storage =
      has_edge() ? energy_[slot].storage
                 : EnergyStorage::InitialState(classes_[class_[slot]].spec.storage);
  s.charge_j = storage.charge_j;
  s.capacity_now_j = storage.capacity_now_j;
  s.energy_last_update_us = storage.last_update.micros();
  if (has_edge()) {
    s.energy_last_advance_us = energy_[slot].last_advance.micros();
    s.tx_granted = tx_[slot].tx_granted;
    s.tx_denied = tx_[slot].tx_denied;
  }
  return s;
}

void DeviceFleet::RestoreSlotState(uint32_t slot, const SlotState& s) {
  alive_[slot] = s.alive;
  handle_gen_[slot] = s.handle_generation;
  unit_gen_[slot] = s.unit_generation;
  deployed_at_[slot] = SimTime::Micros(s.deployed_at_us);
  failed_at_[slot] = SimTime::Micros(s.failed_at_us);
  deadline_[slot] = SimTime::Micros(s.deadline_us);
  failure_event_[slot] = kInvalidEventId;  // Rebuilt by the engine's re-arm.
  if (!has_edge()) {
    return;
  }
  energy_[slot].storage.charge_j = s.charge_j;
  energy_[slot].storage.capacity_now_j = s.capacity_now_j;
  energy_[slot].storage.last_update = SimTime::Micros(s.energy_last_update_us);
  energy_[slot].last_advance = SimTime::Micros(s.energy_last_advance_us);
  tx_[slot].tx_granted = s.tx_granted;
  tx_[slot].tx_denied = s.tx_denied;
}

void DeviceFleet::RecountAggregates() {
  alive_count_ = 0;
  for (size_t slot = 0; slot < handle_gen_.size(); ++slot) {
    if (alive_[slot] != 0) {
      ++alive_count_;
    }
  }
  MetricSet(alive_gauge_, static_cast<double>(alive_count_));
}

void DeviceFleet::BindFleetMetricsFor(ClassRecord& record) {
  record.fleet_replacements =
      sim_.MetricCounter("fleet.replacements", {{"class", record.spec.name}});
}

void DeviceFleet::EnableFleetMetrics() {
  if (fleet_metrics_enabled_) {
    return;
  }
  fleet_metrics_enabled_ = true;
  alive_gauge_ = sim_.MetricGauge("fleet.alive_devices");
  covered_gauge_ = sim_.MetricGauge("fleet.covered_sites");
  MetricSet(alive_gauge_, static_cast<double>(alive_count_));
  MetricSet(covered_gauge_, static_cast<double>(covered_sites_));
  for (ClassRecord& record : classes_) {
    BindFleetMetricsFor(record);
  }
}

size_t DeviceFleet::MemoryBytes() const {
  size_t bytes = 0;
  bytes += handle_gen_.capacity() * sizeof(uint32_t);
  bytes += class_.capacity() * sizeof(uint32_t);
  bytes += zone_.capacity() * sizeof(uint32_t);
  bytes += alive_.capacity() * sizeof(uint8_t);
  bytes += unit_gen_.capacity() * sizeof(uint32_t);
  bytes += deployed_at_.capacity() * sizeof(SimTime);
  bytes += failed_at_.capacity() * sizeof(SimTime);
  bytes += deadline_.capacity() * sizeof(SimTime);
  bytes += failure_event_.capacity() * sizeof(EventId);
  bytes += x_.capacity() * sizeof(double);
  bytes += y_.capacity() * sizeof(double);
  bytes += energy_.capacity() * sizeof(EnergyColumn);
  bytes += tx_.capacity() * sizeof(EnergyCounters);
  bytes += harvester_.capacity() * sizeof(HarvesterModel);
  bytes += free_.capacity() * sizeof(uint32_t);
  return bytes;
}

}  // namespace centsim
