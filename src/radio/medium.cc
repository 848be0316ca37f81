#include "src/radio/medium.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace centsim {

void SharedMedium::Register(const Transmission& tx) {
  assert(active_.empty() || tx.start >= active_.back().start);
  active_.push_back(tx);
  longest_airtime_ = std::max(longest_airtime_, tx.end - tx.start);
}

bool SharedMedium::Delivered(const Transmission& tx, double capture_margin_db) const {
  // A frame starting at or before tx.start - longest_airtime_ has ended by
  // tx.start, and one starting at or after tx.end has not begun: neither
  // overlaps. The frames in between are summed in registration order, as
  // a full scan would.
  const SimTime earliest = tx.start - longest_airtime_;
  auto it = std::upper_bound(
      active_.begin(), active_.end(), earliest,
      [](SimTime t, const Transmission& other) { return t < other.start; });
  double interference_mw = 0.0;
  for (; it != active_.end() && it->start < tx.end; ++it) {
    const Transmission& other = *it;
    if (other.tx_id == tx.tx_id || other.channel != tx.channel) {
      continue;
    }
    if (tx.start < other.end) {
      interference_mw += DbmToMilliwatts(other.rx_power_dbm);
    }
  }
  bool delivered = true;
  if (interference_mw > 0.0) {
    const double margin = tx.rx_power_dbm - MilliwattsToDbm(interference_mw);
    delivered = margin >= capture_margin_db;
  }
  MetricInc(delivered ? delivered_metric_ : lost_metric_);
  return delivered;
}

void SharedMedium::ExpireBefore(SimTime t) {
  while (!active_.empty() && active_.front().end < t) {
    active_.pop_front();
  }
}

double AlohaModel::SuccessProbability(double arrival_rate_hz, SimTime airtime) {
  const double g = arrival_rate_hz * airtime.ToSeconds();
  return std::exp(-2.0 * g);
}

double CsmaModel::SuccessProbability(double arrival_rate_hz, SimTime airtime, SimTime slot) {
  // Non-persistent CSMA (Kleinrock-Tobagi): with normalized propagation
  // a = slot/airtime, S/G relation gives per-attempt success
  //   P = exp(-a G) / (G (1 + 2a) + exp(-a G))  ... we use the standard
  // vulnerable-window form: collisions only if another arrival falls in
  // the slot window before carrier is sensed.
  const double g_slot = arrival_rate_hz * slot.ToSeconds();
  (void)airtime;
  return std::exp(-g_slot);
}

double CsmaModel::ExpectedAttempts(double arrival_rate_hz, SimTime airtime, SimTime slot) {
  // Each attempt defers while the channel is busy; attempts until success
  // is geometric in the per-attempt success probability.
  const double p = SuccessProbability(arrival_rate_hz, airtime, slot);
  // Busy-channel probability adds deferrals (not failures): expected
  // sensing rounds per attempt = 1 / (1 - busy).
  const double busy = 1.0 - std::exp(-arrival_rate_hz * airtime.ToSeconds());
  const double rounds_per_attempt = 1.0 / std::max(1e-9, 1.0 - busy);
  return rounds_per_attempt / std::max(1e-9, p);
}

}  // namespace centsim
