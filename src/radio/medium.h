// Shared-medium contention models.
//
// Two levels of fidelity:
//  - SharedMedium: exact overlap bookkeeping. Transmissions register their
//    (start, end, channel, rx power at the gateway); a frame is lost if a
//    co-channel frame overlaps it, unless it captures (is sufficiently
//    stronger than the interference sum). Used by packet-level tests and
//    small scenarios.
//  - AlohaModel / CsmaModel: closed-form success probability under Poisson
//    offered load. Used by fleet-scale scenarios where simulating every
//    frame of 200k devices over 50 years would be wasteful: each frame's
//    fate is an independent draw against the analytic collision probability.

#ifndef SRC_RADIO_MEDIUM_H_
#define SRC_RADIO_MEDIUM_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/radio/link_budget.h"
#include "src/sim/metrics.h"
#include "src/sim/time.h"

namespace centsim {

// Exact event-window medium for one receiver location.
class SharedMedium {
 public:
  struct Transmission {
    SimTime start;
    SimTime end;
    uint32_t channel;
    double rx_power_dbm;  // At the receiver this medium instance models.
    uint64_t tx_id;
  };

  // Registers a transmission. Call in non-decreasing start order.
  void Register(const Transmission& tx);

  // Decides whether `tx` (already registered) was received, considering
  // every overlapping co-channel transmission registered so far. The frame
  // survives if no overlap, or if its power exceeds the aggregate
  // interference by `capture_margin_db`. O(log n + overlaps): starts are
  // sorted and no frame lasts longer than the longest registered airtime,
  // so only frames starting in (tx.start - that airtime, tx.end) are read.
  bool Delivered(const Transmission& tx, double capture_margin_db) const;

  // Drops transmissions ending before `t` (they can no longer interfere).
  void ExpireBefore(SimTime t);

  size_t active_count() const { return active_.size(); }

  // Attaches delivered/lost counters (e.g. medium.delivered{tech},
  // medium.lost{tech}); incremented by Delivered(). Either may be null.
  void BindMetrics(Counter* delivered, Counter* lost) {
    delivered_metric_ = delivered;
    lost_metric_ = lost;
  }

 private:
  std::deque<Transmission> active_;
  SimTime longest_airtime_;  // Over every registered frame, expired ones too.
  Counter* delivered_metric_ = nullptr;
  Counter* lost_metric_ = nullptr;
};

// Pure ALOHA success probability: P = exp(-2 G) for normalized offered
// load G = lambda * airtime (frames arriving per frame-time).
class AlohaModel {
 public:
  // `arrival_rate_hz`: aggregate frame arrivals visible at the gateway.
  static double SuccessProbability(double arrival_rate_hz, SimTime airtime);
};

// Non-persistent CSMA-CA success probability approximation: carrier sensing
// prevents most overlaps; residual collisions come from the vulnerable
// window of one propagation+turnaround slot.
class CsmaModel {
 public:
  // `slot`: the vulnerable window (CCA duration + turnaround), 802.15.4
  // default 128 us + 192 us.
  static double SuccessProbability(double arrival_rate_hz, SimTime airtime,
                                   SimTime slot = SimTime::Micros(320));
  // Expected number of backoff attempts per delivered frame.
  static double ExpectedAttempts(double arrival_rate_hz, SimTime airtime,
                                 SimTime slot = SimTime::Micros(320));
};

}  // namespace centsim

#endif  // SRC_RADIO_MEDIUM_H_
