// Survival analysis over observed lifetimes (possibly right-censored).
//
// The experiment harness records, for every device/gateway instance, either
// a failure time or a censoring time (still alive when the run ended). The
// Kaplan-Meier estimator turns those observations into a nonparametric
// survival curve — the canonical way to report "how long do these things
// actually last" from a living study like the paper's §4.5 diary.

#ifndef SRC_RELIABILITY_SURVIVAL_H_
#define SRC_RELIABILITY_SURVIVAL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/time.h"

namespace centsim {

struct SurvivalObservation {
  SimTime time;  // Failure time, or last-seen-alive time if censored.
  bool failed;   // false => right-censored.
};

// Observations are kept in the order they were observed, each packed into
// one signed 64-bit word: the time in microseconds times two, plus one if
// censored. Ascending word order is the curve's order (time, then failures
// before censorings at equal times), so Curve() sorts the words directly.
// Times must lie within ±2^62 µs (about 146,000 years). A run split into
// parts (shard lanes, walk blocks) observes into one estimator per part and
// splices them together in part order with Append, which moves each part's
// storage as a segment instead of copying it: the century holds millions of
// observations, and a copying merge would hold them twice.
class KaplanMeier {
 public:
  void Observe(SimTime time, bool failed) { tail_.push_back(Pack(time, failed)); }
  void Observe(const SurvivalObservation& o) { Observe(o.time, o.failed); }

  // Moves `other`'s observations, in order, after this estimator's, and
  // leaves `other` empty. Later observations follow them.
  void Append(KaplanMeier&& other);

  size_t count() const { return spliced_count_ + tail_.size(); }
  size_t failure_count() const;

  // Calls fn(observation) for every observation, in order.
  template <typename Fn>
  void ForEachObservation(Fn&& fn) const {
    for (const std::vector<int64_t>& segment : segments_) {
      for (const int64_t word : segment) {
        fn(Unpack(word));
      }
    }
    for (const int64_t word : tail_) {
      fn(Unpack(word));
    }
  }

  // Product-limit survival estimate S(t). 1.0 before the first event.
  double SurvivalAt(SimTime t) const;

  // Smallest t with S(t) <= 0.5, if the curve gets there (it may not if
  // heavy censoring leaves S above 0.5 at the last observation).
  std::optional<SimTime> MedianSurvival() const;

  // Restricted mean survival time: area under S(t) up to `horizon`.
  SimTime RestrictedMean(SimTime horizon) const;

  // The step curve as (time, survival-after) pairs, for table output.
  struct CurvePoint {
    SimTime time;
    double survival;
    uint64_t at_risk;
    uint64_t events;
  };
  std::vector<CurvePoint> Curve() const;

 private:
  static int64_t Pack(SimTime time, bool failed) {
    return time.micros() * 2 + (failed ? 0 : 1);
  }
  static SurvivalObservation Unpack(int64_t word) {
    return {SimTime::Micros(word >> 1), (word & 1) == 0};
  }

  // Spliced segments, in order, then the tail Observe appends to.
  std::vector<std::vector<int64_t>> segments_;
  size_t spliced_count_ = 0;  // Observations in segments_.
  std::vector<int64_t> tail_;
};

// Tabulated inverse-survival sampler: the sampled engine's lifetime draw.
//
// The serial engine samples a device life as the minimum of per-component
// inverse-CDF draws (SeriesSystem::SampleLife) — around eight pow/log calls
// per deployment. The sampled engine replays millions of deployments
// inside its fast-forward walk, so it precomputes the *system* survival
// curve's inverse once (bisection on a uniform u-grid) and then samples
// with one uniform draw plus a linear interpolation. The sampled
// distribution equals min-of-components (a series system's survival is the
// product) up to the table's interpolation error; the tail beyond
// S(t) < 1e-9 is truncated to the table's last knot.
//
// Determinism contract: Sample consumes exactly one NextDouble from the
// caller's stream, so per-entity keyed streams (RandomStream::Derive) give
// every entity a reproducible life regardless of draw order or detailed-
// window placement.
class SurvivalTable {
 public:
  // Builds the inverse of `survival` (monotone non-increasing, S(0) = 1)
  // on a `points`-knot uniform u-grid. The time axis upper bound is found
  // by doubling until S drops below 1e-9.
  static SurvivalTable Build(const std::function<double(SimTime)>& survival,
                             uint32_t points = 4096);

  // Draws a life: one NextDouble, one table interpolation.
  SimTime Sample(RandomStream& rng) const;

  // Draws a remaining life for an item that already survived to `age`, by
  // inverse-sampling the conditional distribution through the same table.
  SimTime SampleConditional(RandomStream& rng, SimTime age) const;

  // S(t) recovered from the table (binary search + interpolation).
  double SurvivalAt(SimTime t) const;

  uint32_t points() const { return static_cast<uint32_t>(times_us_.size()); }
  SimTime max_time() const;

 private:
  // times_us_[i] = S^{-1}(u_i) in microseconds, u_i = i / (points - 1)
  // clamped away from 0 at the tail knot; decreasing in i.
  std::vector<int64_t> times_us_;
};

}  // namespace centsim

#endif  // SRC_RELIABILITY_SURVIVAL_H_
