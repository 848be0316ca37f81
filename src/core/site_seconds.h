// The exact availability integral every district and century engine
// shares: site-microseconds as signed 128-bit integers, over the whole run
// and per year, and the one conversion from an integral to a rate.

#ifndef SRC_CORE_SITE_SECONDS_H_
#define SRC_CORE_SITE_SECONDS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"
#include "src/snapshot/bytes.h"

namespace centsim {

// Weighted site-microseconds (alive sites, or sites in service) as exact
// signed 128-bit integers. An integer sum does not depend on how its spans
// are split or ordered, so every engine, lane split and window placement
// integrates the same value. A driver that advances at every transition
// adds [last_change, now) through AdvanceTo; the sampled century's walk,
// which advances one site at a time, adds each closed interval through
// AddSpan (and backs an open one out with weight -1 on restore).
// Multi-decade spans stay O(1): the years a span covers whole go into a
// difference array of full-year weights that Yearly() folds back in.
struct SiteSeconds {
  using I128 = __int128;

  explicit SiteSeconds(SimTime horizon)
      : yearly(static_cast<size_t>(std::ceil(horizon.ToYears())), 0),
        yearly_weight_diff(yearly.size(), 0) {}

  // Adds `weight` sites over [start, end).
  void AddSpan(SimTime start, SimTime end, int64_t weight);

  // Adds `weight` sites over [last_change, now) and moves the integration
  // point to `now`; a no-op unless `now` is later.
  void AdvanceTo(SimTime now, int64_t weight) {
    if (now > last_change) {
      AddSpan(last_change, now, weight);
      last_change = now;
    }
  }

  // Adds another integral over the same horizon (a shard lane's).
  void Add(const SiteSeconds& other);

  // Per-year integrals: `yearly` with the full-year weights folded in.
  std::vector<I128> Yearly() const;

  // The rate `us` site-microseconds make over `sites` sites held for
  // `span`: the integral in seconds over the site-seconds it could hold.
  // Every report and window sample converts through here.
  static double Rate(I128 us, SimTime span, uint32_t sites) {
    return static_cast<double>(us) / 1e6 / (span.ToSeconds() * sites);
  }

  // The mean rate over the horizon, each year's rate over the span it
  // covers (YearSpan), and the lowest of `*min_yearly` and every yearly
  // rate.
  void FillRates(SimTime horizon, uint32_t sites, double* mean, std::vector<double>* yearly_rates,
                 double* min_yearly) const;

  // The snapshot form both models write: the total, the year count and
  // each year's integral. Decode reads it into an integral over the same
  // horizon and returns false when it is shaped for another horizon; the
  // caller checks the reader for truncation.
  void Encode(ByteWriter& w) const;
  bool Decode(ByteReader& r);

  uint32_t years() const { return static_cast<uint32_t>(yearly.size()); }

  SimTime last_change;  // AdvanceTo's integration point.
  I128 total = 0;
  std::vector<I128> yearly;              // Partial years only.
  std::vector<I128> yearly_weight_diff;  // Full-year weights.
};

}  // namespace centsim

#endif  // SRC_CORE_SITE_SECONDS_H_
