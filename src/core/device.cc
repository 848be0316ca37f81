#include "src/core/device.h"

#include <algorithm>

#include "src/radio/frame.h"
#include "src/radio/phy_model.h"
#include "src/security/report_auth.h"
#include "src/security/signing.h"

namespace centsim {

LoadProfile LoadProfileFor(const EdgeDeviceConfig& config) {
  const PhyModel phy = PhyModel::For(config.tech, config.lora);
  LoadProfile load;
  load.tx_energy_j = phy.TxEnergyJoules(config.tx_power_dbm, config.payload_bytes) + 0.002;
  load.sleep_power_w = 2e-6;
  if (config.tech == RadioTech::kLoRa && config.lora_class == LoraDeviceClass::kClassC) {
    // Class C never closes its receive window: the radio's listen current
    // becomes the sleep floor.
    load.sleep_power_w += LoraPhy::kRxListenPowerW;
  }
  load.sense_energy_j = 0.002;
  load.brownout_reserve_j = 0.02;
  return load;
}

EdgeDevice::EdgeDevice(Simulation& sim, EdgeDeviceConfig config, NetworkFabric& fabric,
                       DeviceFleet& fleet, EnergyManager energy, SeriesSystem hardware)
    : sim_(sim),
      config_(std::move(config)),
      fabric_(fabric),
      fleet_(fleet),
      rng_(sim.StreamFor(0x6465760000000000ULL ^ config_.id)),
      sensor_(config_.sensor_kind, sim.seed() ^ (0x53454e53ULL << 16) ^ config_.id) {
  // Class spec: everything unit-independent. The fleet dedups by content,
  // so a thousand same-make devices share one record (and one set of
  // per-tech instruments, bound at first intern in the legacy order).
  DeviceClassSpec spec;
  spec.name = RadioTechName(config_.tech);
  spec.tech = config_.tech;
  spec.lora = config_.lora;
  spec.rx_class = config_.tech == RadioTech::kLoRa ? config_.lora_class
                                                   : LoraDeviceClass::kClassA;
  spec.tx_power_dbm = config_.tx_power_dbm;
  spec.report_interval = config_.report_interval;
  spec.payload_bytes = config_.payload_bytes;
  spec.vendor = config_.vendor;
  spec.coupling = config_.coupling;
  spec.sensor_kind = config_.sensor_kind;
  spec.load = energy.load();
  spec.storage = energy.storage().params();
  spec.hardware = std::move(hardware);
  cls_ = fleet_.InternClass(spec);

  handle_ = fleet_.Add(cls_, config_.x_m, config_.y_m, /*zone=*/0, energy.harvester());
  slot_ = DeviceFleet::SlotOf(handle_);
  // Carry over any pre-advanced storage state from the passed manager.
  fleet_.SetEnergyStateAt(slot_, energy.storage().state(), energy.last_advance());
}

void EdgeDevice::EnableSigning(const SipHashKey& batch_secret) {
  device_key_ = DeriveDeviceKey(batch_secret, config_.id);
}

EdgeDevice::~EdgeDevice() {
  if (load_registered_) {
    fabric_.RemoveOfferedLoadAt(config_.tech, PacketsPerHour(), config_.x_m, config_.y_m);
  }
  if (beacon_registered_) {
    fabric_.UnregisterBeaconListener(handle_);
  }
  if (report_event_ != kInvalidEventId) {
    sim_.scheduler().Cancel(report_event_);
  }
  if (fleet_.IsLive(handle_)) {
    const EventId failure = fleet_.failure_event(slot_);
    if (failure != kInvalidEventId) {
      sim_.scheduler().Cancel(failure);
    }
    fleet_.Remove(handle_);
  }
}

void EdgeDevice::Deploy() {
  fleet_.DeployAt(slot_, sim_.Now());
  if (!load_registered_) {
    fabric_.AddOfferedLoadAt(config_.tech, PacketsPerHour(), config_.x_m, config_.y_m);
    load_registered_ = true;
  }
  if (config_.tech == RadioTech::kLoRa && config_.lora_class == LoraDeviceClass::kClassB &&
      !beacon_registered_) {
    fabric_.RegisterBeaconListener(handle_);
    beacon_registered_ = true;
  }
  ScheduleHardwareFailure();
  // Random phase so fleets do not synchronize.
  ScheduleNextReport(
      SimTime::Seconds(rng_.Uniform(0.0, config_.report_interval.ToSeconds())));
}

void EdgeDevice::ReplaceUnit() {
  const EventId failure = fleet_.failure_event(slot_);
  if (failure != kInvalidEventId) {
    sim_.scheduler().Cancel(failure);
    fleet_.set_failure_event(slot_, kInvalidEventId);
  }
  fleet_.DeployAt(slot_, sim_.Now());
  fleet_.CountReplacementAt(slot_);
  if (sim_.TraceEnabled(TraceLevel::kMaintenance)) {
    sim_.Maint(config_.name, "unit replaced (generation " +
                                 std::to_string(fleet_.unit_generation(slot_)) + ")");
  }
  ScheduleHardwareFailure();
  if (report_event_ == kInvalidEventId) {
    ScheduleNextReport(
        SimTime::Seconds(rng_.Uniform(0.0, config_.report_interval.ToSeconds())));
  }
  if (!load_registered_) {
    fabric_.AddOfferedLoadAt(config_.tech, PacketsPerHour(), config_.x_m, config_.y_m);
    load_registered_ = true;
  }
}

void EdgeDevice::ScheduleHardwareFailure() {
  const auto draw = fleet_.class_spec(cls_).hardware.SampleLife(rng_);
  fleet_.set_deadline(slot_, sim_.Now() + draw.life);
  const EventId failure = sim_.scheduler().ScheduleAfter(
      draw.life,
      [this, draw] {
        fleet_.set_failure_event(slot_, kInvalidEventId);
        fleet_.MarkFailedAt(slot_, sim_.Now());
        if (report_event_ != kInvalidEventId) {
          sim_.scheduler().Cancel(report_event_);
          report_event_ = kInvalidEventId;
        }
        if (load_registered_) {
          fabric_.RemoveOfferedLoadAt(config_.tech, PacketsPerHour(), config_.x_m, config_.y_m);
          load_registered_ = false;
        }
        if (sim_.TraceEnabled(TraceLevel::kFailure)) {
          const SeriesSystem& hardware = fleet_.class_spec(cls_).hardware;
          sim_.Fail(config_.name,
                    std::string("device hardware failure: ") +
                        (draw.failing_component != SIZE_MAX
                             ? hardware.components()[draw.failing_component].name
                             : "unknown"));
        }
        if (on_failure_) {
          on_failure_(*this, sim_.Now());
        }
      },
      "device.failure");
  fleet_.set_failure_event(slot_, failure);
}

void EdgeDevice::ScheduleNextReport(SimTime delay) {
  report_event_ = sim_.scheduler().ScheduleAfter(
      delay,
      [this] {
        report_event_ = kInvalidEventId;
        OnReportTimer();
      },
      "device.report");
}

void EdgeDevice::OnReportTimer() {
  if (!fleet_.alive(slot_)) {
    return;
  }
  ++attempts_;
  auto account = [&](DeliveryOutcome outcome) {
    ++outcomes_[static_cast<size_t>(outcome)];
    if (outcome == DeliveryOutcome::kDelivered) {
      ++delivered_;
    }
  };

  // LoRa regulatory duty cycle (EU-style 1%).
  if (config_.tech == RadioTech::kLoRa && sim_.Now() < next_duty_allowed_) {
    account(DeliveryOutcome::kDutyCycleDeferred);
    ScheduleNextReport(config_.report_interval);
    return;
  }

  if (!fleet_.EnergyTryTransmit(slot_, sim_.Now())) {
    account(DeliveryOutcome::kNoEnergy);
    // Retry when energy is forecast to suffice, capped at the interval.
    const SimTime eta = fleet_.EstimateNextAffordableAt(
        slot_, sim_.Now(), fleet_.class_spec(cls_).load.tx_energy_j);
    const SimTime wait = std::min(eta - sim_.Now(), config_.report_interval);
    ScheduleNextReport(wait > SimTime::Minutes(1) ? wait : SimTime::Minutes(1));
    return;
  }

  UplinkPacket pkt;
  pkt.device_id = config_.id;
  pkt.sequence = ++sequence_;  // Counters start at 1: 0 means "none seen".
  pkt.payload_bytes = config_.payload_bytes;
  pkt.tech = config_.tech;
  pkt.sent_at = sim_.Now();
  pkt.reading.device_id = config_.id;
  pkt.reading.sequence = pkt.sequence;
  pkt.reading.value_centi = sensor_.MeasureCentiAt(sim_.Now());
  pkt.reading.sensor_type = static_cast<uint8_t>(config_.sensor_kind);
  pkt.reading.battery_soc = static_cast<uint8_t>(fleet_.StorageSocAt(slot_) * 255.0);
  if (device_key_.has_value()) {
    pkt.authenticated = true;
    pkt.auth_tag = ComputeReadingTag(*device_key_, pkt.device_id, pkt.sequence, pkt.reading);
  }

  NetworkFabric::TxRequest request;
  request.packet = pkt;
  request.params.x_m = config_.x_m;
  request.params.y_m = config_.y_m;
  request.params.tx_power_dbm = config_.tx_power_dbm;
  request.params.lora = config_.lora;
  request.params.vendor = config_.vendor;

  const DeliveryReport report = fabric_.Offer(request, rng_);
  account(report.outcome);

  if (report.outcome == DeliveryOutcome::kCadBusy) {
    // The CAD scan found the band busy before the PA fired: refund the
    // pre-charged TX energy minus the scan's own receive cost, skip the
    // duty-cycle clock (nothing was sent), and retry after a short
    // desynchronizing backoff.
    const double refund_j =
        fleet_.class_spec(cls_).load.tx_energy_j - LoraPhy::CadEnergyJoules(config_.lora);
    fleet_.EnergyConsumeAt(slot_, sim_.Now(), -refund_j);
    --sequence_;  // The frame never left; reuse its sequence number.
    ScheduleNextReport(SimTime::Seconds(rng_.Uniform(1.0, 30.0)));
    return;
  }

  if (config_.tech == RadioTech::kLoRa) {
    const SimTime airtime =
        PhyModel::ForLora(config_.lora).Airtime(config_.payload_bytes);
    next_duty_allowed_ = DutyCycleRule{}.NextAllowed(sim_.Now(), airtime);
  }
  ScheduleNextReport(config_.report_interval);
}

}  // namespace centsim
