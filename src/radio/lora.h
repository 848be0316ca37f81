// LoRa PHY model: airtime per the Semtech LoRa Modem Designer formula,
// per-spreading-factor sensitivity and SNR demodulation limits, and the
// regulatory duty-cycle / dwell-time constraints LoRaWAN MACs must obey.

#ifndef SRC_RADIO_LORA_H_
#define SRC_RADIO_LORA_H_

#include <cstdint>

#include "src/sim/time.h"

namespace centsim {

enum class LoraSf : uint8_t { kSf7 = 7, kSf8 = 8, kSf9 = 9, kSf10 = 10, kSf11 = 11, kSf12 = 12 };

// LoRaWAN device receive classes. Class A devices open receive windows
// only after their own uplinks (the transmit-only default: effectively no
// downlink). Class B devices track gateway beacons (every
// LoraPhy::kBeaconPeriodS seconds) and open scheduled ping slots — each
// beacon costs receive energy. Class C devices listen continuously: the
// sleep floor becomes the receiver's listen power.
enum class LoraDeviceClass : uint8_t { kClassA = 0, kClassB = 1, kClassC = 2 };

const char* LoraDeviceClassName(LoraDeviceClass cls);

struct LoraConfig {
  LoraSf sf = LoraSf::kSf9;
  double bandwidth_hz = 125e3;
  uint8_t coding_rate = 1;     // CR index: 1 => 4/5 ... 4 => 4/8.
  uint8_t preamble_symbols = 8;
  bool explicit_header = true;
  bool low_data_rate_optimize_auto = true;  // Per spec for SF11/12 @125k.
  bool crc_on = true;

  bool operator==(const LoraConfig&) const = default;
};

class LoraPhy {
 public:
  // Time-on-air for a `payload_bytes` uplink under `cfg` (Semtech AN1200.13).
  static SimTime Airtime(const LoraConfig& cfg, size_t payload_bytes);

  // Receiver sensitivity (dBm) at the SF/BW point (SX1276-class numbers).
  static double SensitivityDbm(LoraSf sf, double bandwidth_hz = 125e3);

  // Minimum demodulation SNR (dB) for each SF (negative: below noise).
  static double DemodSnrDb(LoraSf sf);

  // Packet delivered iff received power >= sensitivity; on top of that,
  // an SNR-margin-based PER ramp models the transition region.
  static double PacketErrorRate(LoraSf sf, double rx_power_dbm, double bandwidth_hz = 125e3);

  // TX energy for one uplink at `tx_power_dbm` (PA efficiency ~ 20%).
  static double TxEnergyJoules(const LoraConfig& cfg, double tx_power_dbm, size_t payload_bytes);

  // The co-channel capture margin: a frame survives interference if it is
  // at least this much stronger than the sum of colliders (dB). Different
  // SFs are quasi-orthogonal and do not collide in this model.
  static constexpr double kCaptureMarginDb = 6.0;

  // Receiver listen power (SX127x-class RX current ~11 mA at 3.3 V): the
  // continuous draw of a class C device, and the per-beacon cost basis for
  // class B.
  static constexpr double kRxListenPowerW = 0.036;

  // Class B beacon cadence (LoRaWAN spec: 128 s) and the receive window a
  // tracking device keeps open per beacon (beacon frame + guard).
  static constexpr double kBeaconPeriodS = 128.0;
  static constexpr double kBeaconRxS = 0.15;
  // Energy one device spends receiving one beacon.
  static constexpr double kBeaconRxEnergyJ = kRxListenPowerW * kBeaconRxS;

  // Channel-activity detection: a CAD scan costs roughly two symbol times
  // of receive current, far below a transmission. The scan detects any
  // co-SF preamble currently on the air.
  static double CadEnergyJoules(const LoraConfig& cfg);
};

// Regional duty-cycle limits (EU868-style band rules; US915 uses dwell time
// which we convert to an equivalent duty bound for planning).
struct DutyCycleRule {
  double max_duty = 0.01;  // 1% in EU 868 main band.

  // Earliest next transmission start after a frame of `airtime` sent at
  // `started`: enforced as a per-frame off period airtime*(1/duty - 1).
  SimTime NextAllowed(SimTime started, SimTime airtime) const {
    return started + airtime + airtime * (1.0 / max_duty - 1.0);
  }
  // Max frames/day for a fixed airtime per frame.
  double MaxFramesPerDay(SimTime airtime) const {
    return 86400.0 * max_duty / airtime.ToSeconds();
  }
};

}  // namespace centsim

#endif  // SRC_RADIO_LORA_H_
