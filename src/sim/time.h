// Simulated-time representation for century-scale runs.
//
// The simulator spans at least 100 years of simulated time while individual
// radio transmissions last fractions of a millisecond, so the time base must
// cover ~3.2e9 seconds at sub-millisecond resolution. A signed 64-bit count
// of microseconds covers roughly 292,000 years, which is comfortable.

#ifndef SRC_SIM_TIME_H_
#define SRC_SIM_TIME_H_

#include <cstdint>
#include <string>

namespace centsim {

// A point in simulated time, measured in microseconds since the start of the
// simulation. Value type; freely copyable.
class SimTime {
 public:
  constexpr SimTime() : micros_(0) {}

  static constexpr SimTime Micros(int64_t us) { return SimTime(us); }
  static constexpr SimTime Millis(int64_t ms) { return SimTime(ms * 1000); }
  static constexpr SimTime Seconds(double s) {
    return SimTime(static_cast<int64_t>(s * 1e6));
  }
  static constexpr SimTime Minutes(double m) { return Seconds(m * 60.0); }
  static constexpr SimTime Hours(double h) { return Seconds(h * 3600.0); }
  static constexpr SimTime Days(double d) { return Hours(d * 24.0); }
  static constexpr SimTime Weeks(double w) { return Days(w * 7.0); }
  // A "year" is the Julian year (365.25 days), the convention used for
  // service-life figures in infrastructure planning.
  static constexpr SimTime Years(double y) { return Days(y * 365.25); }
  static constexpr SimTime Max() { return SimTime(INT64_MAX); }

  constexpr int64_t micros() const { return micros_; }
  constexpr double ToSeconds() const { return static_cast<double>(micros_) / 1e6; }
  constexpr double ToHours() const { return ToSeconds() / 3600.0; }
  constexpr double ToDays() const { return ToHours() / 24.0; }
  constexpr double ToWeeks() const { return ToDays() / 7.0; }
  constexpr double ToYears() const { return ToDays() / 365.25; }

  constexpr SimTime operator+(SimTime other) const { return SimTime(micros_ + other.micros_); }
  constexpr SimTime operator-(SimTime other) const { return SimTime(micros_ - other.micros_); }
  constexpr SimTime operator*(double k) const {
    return SimTime(static_cast<int64_t>(static_cast<double>(micros_) * k));
  }
  SimTime& operator+=(SimTime other) {
    micros_ += other.micros_;
    return *this;
  }
  SimTime& operator-=(SimTime other) {
    micros_ -= other.micros_;
    return *this;
  }

  constexpr auto operator<=>(const SimTime&) const = default;

  // Renders as the largest natural unit, e.g. "3.42y", "17.5d", "220ms".
  std::string ToString() const;

 private:
  explicit constexpr SimTime(int64_t us) : micros_(us) {}

  int64_t micros_;
};

// The part of year `year` (0-based) that a run over [0, horizon) covers: a
// whole year, except that the last year of a fractional horizon ends at the
// horizon. Yearly rates divide by this span. Integer micros, so every year
// of a whole-year horizon spans exactly Years(1).
constexpr SimTime YearSpan(SimTime horizon, uint32_t year) {
  const int64_t year_us = SimTime::Years(1).micros();
  const int64_t left_us = horizon.micros() - static_cast<int64_t>(year) * year_us;
  return SimTime::Micros(left_us < year_us ? left_us : year_us);
}

}  // namespace centsim

#endif  // SRC_SIM_TIME_H_
