// The uplink medium: given a transmit-only device's frame, decide its
// fate across the access channel, gateway, backhaul, and cloud tiers, and
// attribute every loss to the tier that caused it (Figure 1 accounting).
//
// Devices are broadcast transmitters: every reachable, technology-matching
// gateway may hear a frame; the frame is delivered if at least one of them
// receives it (PHY + collision draws) and forwards it through its backhaul
// to an operational endpoint.
//
// The medium entrypoint is Offer(TxRequest): one call, one DeliveryReport
// carrying the outcome plus the physical detail (delivering gateway, RSSI,
// SNR, witness count, capture flag) that used to be scattered across
// DeliveryOutcome returns, bools, and gateway tuples.
//
// Each device's view of the gateways is a link row: the reachable
// gateways, strongest first, with received power, SNR and PER at the
// device's payload. Offer builds a row on a device's first frame and
// reuses it while the request's radio inputs match; see LinkRow.
//
// Fidelity mechanisms beyond the legacy pipeline are opt-in via
// MediumConfig — grid-bucketed gateway lookup with per-cell offered load,
// SIR-based capture (strongest signal survives when it clears the ambient
// interference estimate by the capture margin), and LoRa channel-activity
// detection — all default-off so seeded runs pinned to golden digests are
// bit-identical until a scenario turns a knob.

#ifndef SRC_CORE_NETWORK_FABRIC_H_
#define SRC_CORE_NETWORK_FABRIC_H_

#include <array>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/fleet.h"
#include "src/core/hierarchy.h"
#include "src/net/cloud_endpoint.h"
#include "src/net/gateway.h"
#include "src/net/network_server.h"
#include "src/net/packet.h"
#include "src/radio/contention.h"
#include "src/radio/link_budget.h"
#include "src/radio/lora.h"
#include "src/radio/phy_model.h"
#include "src/sim/simulation.h"
#include "src/snapshot/bytes.h"
#include "src/snapshot/timer_table.h"

namespace centsim {

// Opt-in medium fidelity knobs. Defaults reproduce the legacy pipeline
// draw-for-draw; each knob is independent.
struct MediumConfig {
  // Gateway candidate lookup through a uniform grid (3x3 neighborhood,
  // cell = grid_cell_m) instead of a full scan, and collision/CAD math on
  // the offered load local to the transmitter's neighborhood instead of
  // the global aggregate.
  bool grid_buckets = false;
  double grid_cell_m = 2000.0;

  // Capture effect by signal-to-interference ratio: during a collision the
  // strongest candidate survives iff it clears the gateway's running
  // interference estimate by capture_margin_db — deterministic, replacing
  // the legacy even-odds coin.
  bool sir_capture = false;
  double capture_margin_db = LoraPhy::kCaptureMarginDb;

  // LoRa channel-activity detection: before transmitting, the device
  // listens for a co-channel preamble (P(idle) = exp(-load * airtime))
  // and defers politely (kCadBusy) when the band is busy.
  bool cad = false;
};

class NetworkFabric {
 public:
  explicit NetworkFabric(Simulation& sim);

  void SetPathLoss(RadioTech tech, PathLossModel model);
  void AddGateway(Gateway* gateway);
  void SetEndpoint(CloudEndpoint* endpoint) { endpoint_ = endpoint; }
  CloudEndpoint* endpoint() const { return endpoint_; }

  // LoRaWAN semantics: every gateway that hears a frame forwards (and is
  // paid for) its copy; the network server deduplicates before the
  // endpoint. Without a server, the strongest successful gateway delivers
  // directly (the 802.15.4/owned-infrastructure model). The server must
  // already point at the same endpoint.
  void SetNetworkServer(NetworkServer* server) { network_server_ = server; }

  void ConfigureMedium(const MediumConfig& config);
  const MediumConfig& medium_config() const { return medium_; }

  // Offered-load bookkeeping for the analytic collision models: devices
  // register their schedule so concurrent-transmission probability scales
  // with fleet size. The positional variants additionally bin the load
  // into grid cells so grid-bucketed runs contend against their
  // neighborhood, not the whole city; they are safe to call with the grid
  // off (the global aggregate stays identical).
  void AddOfferedLoad(RadioTech tech, double packets_per_hour);
  void RemoveOfferedLoad(RadioTech tech, double packets_per_hour);
  void AddOfferedLoadAt(RadioTech tech, double packets_per_hour, double x_m, double y_m);
  void RemoveOfferedLoadAt(RadioTech tech, double packets_per_hour, double x_m, double y_m);
  double OfferedLoadHz(RadioTech tech) const;
  // Offered load (Hz) visible in the 3x3 cell neighborhood of (x, y).
  // Falls back to the global aggregate when the grid is off.
  double LocalOfferedLoadHz(RadioTech tech, double x_m, double y_m) const;

  struct UplinkParams {
    double x_m = 0.0;
    double y_m = 0.0;
    double tx_power_dbm = 0.0;
    LoraConfig lora;          // Consulted when packet.tech == kLoRa.
    std::string vendor;       // Empty => standards-compliant device.
  };

  // One transmission offered to the medium: the frame plus its radio
  // parameters. The struct form keeps call sites stable as fidelity knobs
  // add fields.
  struct TxRequest {
    UplinkPacket packet;
    UplinkParams params;
  };

  // Runs the full pipeline. Counts the outcome and, on success, records
  // the arrival at the endpoint. The report carries the delivering
  // gateway, RSSI/SNR of the best reception, how many gateways witnessed
  // the frame, and whether it survived a collision via capture. Not
  // reentrant: gateway, server and endpoint hooks must not call back into
  // the fabric.
  DeliveryReport Offer(const TxRequest& request, RandomStream& rng);

  // --- Class B beacons and CAD retries (snapshot-safe timers) -----------

  // Class B devices track the medium's beacon (every LoraPhy::kBeaconPeriodS
  // seconds) and pay receive energy per beacon. The beacon is one
  // medium-owned timer routed through `timers`, so checkpoints capture it;
  // each fire charges every live registered listener via the fleet's
  // energy columns.
  void RegisterBeaconListener(DeviceHandle handle);
  void UnregisterBeaconListener(DeviceHandle handle);
  size_t beacon_listener_count() const { return beacon_listeners_.size(); }
  uint64_t beacons_sent() const { return beacons_sent_; }

  // Registers the re-arm callbacks for the medium's timer tags (beacon,
  // CAD retry) and remembers `timers`/`fleet` for future scheduling. Call
  // before TimerTable::Restore() on the restore path.
  void RegisterMediumTimers(TimerTable& timers, DeviceFleet* fleet);

  // Starts the beacon cadence (first fire one period from now). Requires
  // RegisterMediumTimers. Idempotent: a pending beacon is not doubled.
  void StartClassBBeacons();

  // CAD-deferred devices retry after a backoff; the retry timer lives in
  // the TimerTable so a checkpoint taken during the backoff restores it.
  // The handler receives the opaque `device_key` given at schedule time.
  void SetCadRetryHandler(std::function<void(uint64_t)> handler) {
    cad_retry_handler_ = std::move(handler);
  }
  void ScheduleCadRetry(SimTime at, uint64_t device_key);

  // --- Medium snapshot state -------------------------------------------
  // Capture-EWMA columns and beacon bookkeeping; pending timers travel
  // separately through the TimerTable chunk. Listener registrations are
  // rebuilt by device reconstruction.
  void SaveMediumState(ByteWriter& w) const;
  bool RestoreMediumState(ByteReader& r);

  uint64_t attempts() const { return attempts_; }
  uint64_t delivered() const { return outcome_counts_[0]; }
  uint64_t OutcomeCount(DeliveryOutcome outcome) const {
    return outcome_counts_[static_cast<size_t>(outcome)];
  }
  // Failed attempts charged to each tier (delivered attempts excluded).
  std::array<uint64_t, kTierCount> TierAttribution() const;

  const std::vector<Gateway*>& gateways() const { return gateways_; }

 private:
  // One gateway as one device sees it.
  struct LinkEntry {
    Gateway* gw;
    uint32_t index;  // Position in gateways_ (EWMA column).
    double rx_dbm;
    double snr_db;
    double per;  // At the row's payload size.
  };

  // The request fields a link row depends on besides the device id.
  struct LinkKey {
    double x_m = 0.0;
    double y_m = 0.0;
    double tx_power_dbm = 0.0;
    RadioTech tech = RadioTech::k802154;
    LoraConfig lora;
    uint32_t payload_bytes = 0;

    bool operator==(const LinkKey&) const = default;
  };

  // A device's link row: every technology-matching gateway with
  // rx >= sensitivity - 3 dB, strongest first. The links are a pure
  // function of the key, the device id (the map key, which seeds the
  // frozen shadowing), the gateways, the path-loss models and the grid,
  // so AddGateway, SetPathLoss and ConfigureMedium drop every row and
  // snapshots do not carry them.
  struct LinkRow {
    LinkKey key;
    std::vector<LinkEntry> links;
  };

  // The request device's row, rebuilt in place when its key differs.
  const LinkRow& LinkRowFor(const TxRequest& request, const PhyModel& phy);

  // Received power at `gw` for a transmitter at (x, y), with per-link
  // frozen shadowing.
  double RxPowerDbm(const Gateway& gw, const UplinkPacket& packet,
                    const UplinkParams& params) const;

  // Lazily (re)builds the gateway cell grid after AddGateway calls.
  void RebuildGridIfNeeded();

  // Flat cell key for the offered-load bins (independent of the gateway
  // grid's bounding box, so load registration never depends on gateway
  // insertion order).
  static uint64_t LoadCellKey(int64_t cx, int64_t cy) {
    return (static_cast<uint64_t>(cx) << 32) ^ (static_cast<uint64_t>(cy) & 0xFFFFFFFFull);
  }

  void OnBeaconTimer();
  void ScheduleBeaconAt(SimTime at);

  Simulation& sim_;
  PathLossModel pl_802154_;
  PathLossModel pl_lora_;
  std::vector<Gateway*> gateways_;
  CloudEndpoint* endpoint_ = nullptr;
  NetworkServer* network_server_ = nullptr;
  MediumConfig medium_;

  double offered_pph_802154_ = 0.0;
  double offered_pph_lora_ = 0.0;
  // Per-cell offered load (pph), keyed by LoadCellKey, one map per tech.
  std::array<std::unordered_map<uint64_t, double>, 2> cell_pph_;

  // Gateway lookup grid (cell = medium_.grid_cell_m); rebuilt lazily.
  GatewayCellGrid gw_grid_;
  bool gw_grid_dirty_ = true;

  // Link rows by device id; one row per id, overwritten when the id
  // reappears with other radio inputs.
  std::unordered_map<uint32_t, LinkRow> link_rows_;

  // Per-gateway running interference estimate (mW, EWMA alpha = 1/16):
  // the ambient power the SIR capture test compares against. Indexed
  // parallel to gateways_.
  std::vector<double> capture_ewma_mw_;

  // Class B / CAD timer plumbing.
  TimerTable* timers_ = nullptr;
  DeviceFleet* fleet_ = nullptr;
  std::vector<DeviceHandle> beacon_listeners_;
  bool beacon_pending_ = false;
  uint64_t beacons_sent_ = 0;
  std::function<void(uint64_t)> cad_retry_handler_;

  uint64_t attempts_ = 0;
  std::array<uint64_t, kDeliveryOutcomeCount> outcome_counts_{};
  // Per-tech x per-outcome counters (uplink.outcomes{tech,outcome}). The
  // legacy outcomes are pre-created in the constructor — that creation
  // order is part of the golden-digest contract — while outcomes appended
  // after the goldens were pinned (kCadBusy) are created lazily on first
  // increment, so runs that never see them emit byte-identical metrics.
  std::array<std::array<Counter*, kDeliveryOutcomeCount>, 2> outcome_metrics_{};
};

}  // namespace centsim

#endif  // SRC_CORE_NETWORK_FABRIC_H_
