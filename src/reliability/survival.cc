#include "src/reliability/survival.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

namespace centsim {

void KaplanMeier::Append(KaplanMeier&& other) {
  if (!tail_.empty()) {
    spliced_count_ += tail_.size();
    segments_.push_back(std::move(tail_));
  }
  for (std::vector<int64_t>& segment : other.segments_) {
    segments_.push_back(std::move(segment));
  }
  spliced_count_ += other.spliced_count_;
  tail_ = std::move(other.tail_);
  other = KaplanMeier();
}

size_t KaplanMeier::failure_count() const {
  size_t n = 0;
  ForEachObservation([&n](const SurvivalObservation& o) { n += o.failed ? 1 : 0; });
  return n;
}

std::vector<KaplanMeier::CurvePoint> KaplanMeier::Curve() const {
  std::vector<int64_t> sorted;
  sorted.reserve(count());
  for (const std::vector<int64_t>& segment : segments_) {
    sorted.insert(sorted.end(), segment.begin(), segment.end());
  }
  sorted.insert(sorted.end(), tail_.begin(), tail_.end());
  std::sort(sorted.begin(), sorted.end());

  std::vector<CurvePoint> curve;
  double s = 1.0;
  uint64_t at_risk = sorted.size();
  size_t i = 0;
  while (i < sorted.size()) {
    const int64_t time_us = sorted[i] >> 1;
    uint64_t events = 0;
    uint64_t leaving = 0;
    while (i < sorted.size() && (sorted[i] >> 1) == time_us) {
      events += (sorted[i] & 1) == 0 ? 1 : 0;
      ++leaving;
      ++i;
    }
    if (events > 0 && at_risk > 0) {
      s *= 1.0 - static_cast<double>(events) / static_cast<double>(at_risk);
      curve.push_back({SimTime::Micros(time_us), s, at_risk, events});
    }
    at_risk -= leaving;
  }
  return curve;
}

double KaplanMeier::SurvivalAt(SimTime t) const {
  double s = 1.0;
  for (const auto& pt : Curve()) {
    if (pt.time <= t) {
      s = pt.survival;
    } else {
      break;
    }
  }
  return s;
}

std::optional<SimTime> KaplanMeier::MedianSurvival() const {
  for (const auto& pt : Curve()) {
    if (pt.survival <= 0.5) {
      return pt.time;
    }
  }
  return std::nullopt;
}

SimTime KaplanMeier::RestrictedMean(SimTime horizon) const {
  const auto curve = Curve();
  double area = 0.0;
  double s = 1.0;
  SimTime prev;
  for (const auto& pt : curve) {
    const SimTime upto = std::min(pt.time, horizon);
    if (upto > prev) {
      area += s * (upto - prev).ToSeconds();
      prev = upto;
    }
    if (pt.time >= horizon) {
      return SimTime::Seconds(area);
    }
    s = pt.survival;
  }
  if (horizon > prev) {
    area += s * (horizon - prev).ToSeconds();
  }
  return SimTime::Seconds(area);
}

// --- SurvivalTable -------------------------------------------------------

SurvivalTable SurvivalTable::Build(const std::function<double(SimTime)>& survival,
                                   uint32_t points) {
  assert(points >= 2);
  constexpr double kTail = 1e-9;
  // Find a time horizon where essentially everything has failed.
  SimTime t_hi = SimTime::Years(1);
  while (survival(t_hi) > kTail && t_hi.micros() < (INT64_MAX >> 2)) {
    t_hi = t_hi * 2.0;
  }
  // Pre-sample S once on a geometric time grid, then invert each knot by
  // interpolating between grid neighbours. This costs O(grid + points)
  // survival() evaluations instead of a per-knot microsecond bisection
  // (~54 evaluations each); the grid spacing (<0.05% in t) keeps the
  // interpolation error far below the table's own 1/points quantisation.
  constexpr uint32_t kGrid = 32768;
  const double grid_lo = 3.6e9;  // 1 hour in us: S ~ 1 below this.
  const double grid_hi = static_cast<double>(t_hi.micros());
  const double log_step = std::log(std::max(grid_hi / grid_lo, 1.0 + 1e-12)) /
                          static_cast<double>(kGrid - 1);
  std::vector<double> grid_t(kGrid);
  std::vector<double> grid_s(kGrid);
  for (uint32_t k = 0; k < kGrid; ++k) {
    grid_t[k] = grid_lo * std::exp(log_step * static_cast<double>(k));
    grid_s[k] = survival(SimTime::Micros(static_cast<int64_t>(grid_t[k])));
  }
  // Enforce monotone non-increasing samples against numeric jitter.
  for (uint32_t k = 1; k < kGrid; ++k) {
    grid_s[k] = std::min(grid_s[k], grid_s[k - 1]);
  }

  SurvivalTable table;
  table.times_us_.resize(points);
  const uint32_t last = points - 1;
  for (uint32_t i = 0; i < points; ++i) {
    // u = 0 would be the (possibly unbounded) far tail; clamp the first
    // knot to the kTail quantile — lives beyond S < 1e-9 are truncated.
    const double u = std::max(static_cast<double>(i) / static_cast<double>(last), kTail);
    double t;
    if (u >= grid_s.front()) {
      // Between t = 0 (S = 1) and the first grid point.
      const double den = 1.0 - grid_s.front();
      t = den > 0.0 ? grid_t.front() * (1.0 - u) / den : 0.0;
    } else if (u <= grid_s.back()) {
      t = grid_t.back();  // Tail clamp, as before: lives truncated at S ~ kTail.
    } else {
      // First grid index with S <= u (grid_s is non-increasing).
      const auto it = std::lower_bound(grid_s.begin(), grid_s.end(), u,
                                       [](double s, double value) { return s > value; });
      const size_t k = static_cast<size_t>(it - grid_s.begin());
      const double den = grid_s[k - 1] - grid_s[k];
      const double frac = den > 0.0 ? (grid_s[k - 1] - u) / den : 1.0;
      t = grid_t[k - 1] + frac * (grid_t[k] - grid_t[k - 1]);
    }
    table.times_us_[i] = static_cast<int64_t>(t);
  }
  // Monotonicity guard against plateaus in S: make times non-increasing.
  for (uint32_t i = 1; i < points; ++i) {
    table.times_us_[i] = std::min(table.times_us_[i], table.times_us_[i - 1]);
  }
  return table;
}

SimTime SurvivalTable::max_time() const {
  return times_us_.empty() ? SimTime() : SimTime::Micros(times_us_.front());
}

SimTime SurvivalTable::Sample(RandomStream& rng) const {
  const double u = rng.NextDouble();  // [0, 1): S-quantile of the draw.
  const size_t last = times_us_.size() - 1;
  const double pos = u * static_cast<double>(last);
  const size_t i = static_cast<size_t>(pos);
  if (i >= last) {
    return SimTime::Micros(times_us_[last]);
  }
  const double frac = pos - static_cast<double>(i);
  const double t = static_cast<double>(times_us_[i]) * (1.0 - frac) +
                   static_cast<double>(times_us_[i + 1]) * frac;
  return SimTime::Micros(static_cast<int64_t>(t));
}

SimTime SurvivalTable::SampleConditional(RandomStream& rng, SimTime age) const {
  if (age <= SimTime()) {
    return Sample(rng);
  }
  // T | T > age has quantile function S^{-1}(u * S(age)); reuse the table
  // in both directions.
  const double s_age = SurvivalAt(age);
  if (s_age <= 0.0) {
    return SimTime();  // Past the table's tail: fails immediately.
  }
  const double u = rng.NextDouble() * s_age;
  const size_t last = times_us_.size() - 1;
  const double pos = u * static_cast<double>(last);
  const size_t i = static_cast<size_t>(pos);
  SimTime t;
  if (i >= last) {
    t = SimTime::Micros(times_us_[last]);
  } else {
    const double frac = pos - static_cast<double>(i);
    t = SimTime::Micros(static_cast<int64_t>(static_cast<double>(times_us_[i]) * (1.0 - frac) +
                                             static_cast<double>(times_us_[i + 1]) * frac));
  }
  return t > age ? t - age : SimTime();
}

double SurvivalTable::SurvivalAt(SimTime t) const {
  if (times_us_.empty()) {
    return 0.0;
  }
  const int64_t t_us = t.micros();
  if (t_us >= times_us_.front()) {
    return 0.0;
  }
  const size_t last = times_us_.size() - 1;
  if (t_us <= times_us_[last]) {
    return 1.0;
  }
  // times_us_ is non-increasing: binary search for the straddling knots.
  const auto it = std::lower_bound(times_us_.begin(), times_us_.end(), t_us,
                                   [](int64_t knot, int64_t value) { return knot > value; });
  // it points at the first knot <= t_us; it != begin since t < front.
  const size_t hi = static_cast<size_t>(it - times_us_.begin());  // knot <= t.
  const size_t lo = hi - 1;                                       // knot > t.
  const double t_lo = static_cast<double>(times_us_[lo]);
  const double t_hi2 = static_cast<double>(times_us_[hi]);
  const double u_lo = static_cast<double>(lo) / static_cast<double>(last);
  const double u_hi = static_cast<double>(hi) / static_cast<double>(last);
  if (t_lo == t_hi2) {
    return u_hi;
  }
  const double frac = (t_lo - static_cast<double>(t_us)) / (t_lo - t_hi2);
  return u_lo + frac * (u_hi - u_lo);
}

}  // namespace centsim
