#include "src/core/site_seconds.h"

#include <algorithm>

namespace centsim {
namespace {

constexpr int64_t kYearUs = SimTime::Years(1).micros();

}  // namespace

void SiteSeconds::AddSpan(SimTime start, SimTime end, int64_t weight) {
  if (end <= start || weight == 0) {
    return;
  }
  const int64_t t0 = start.micros();
  const int64_t t1 = end.micros();
  total += static_cast<I128>(t1 - t0) * weight;
  const uint32_t y0 = std::min<uint32_t>(years() - 1, static_cast<uint32_t>(t0 / kYearUs));
  const uint32_t y1 = std::min<uint32_t>(years() - 1, static_cast<uint32_t>(t1 / kYearUs));
  if (y0 == y1) {
    yearly[y0] += static_cast<I128>(t1 - t0) * weight;
    return;
  }
  yearly[y0] += static_cast<I128>((y0 + 1) * kYearUs - t0) * weight;
  yearly[y1] += static_cast<I128>(t1 - y1 * kYearUs) * weight;
  if (y1 > y0 + 1) {
    yearly_weight_diff[y0 + 1] += weight;
    yearly_weight_diff[y1] -= weight;
  }
}

void SiteSeconds::Add(const SiteSeconds& other) {
  total += other.total;
  for (uint32_t y = 0; y < years(); ++y) {
    yearly[y] += other.yearly[y];
    yearly_weight_diff[y] += other.yearly_weight_diff[y];
  }
}

std::vector<SiteSeconds::I128> SiteSeconds::Yearly() const {
  std::vector<I128> out = yearly;
  I128 running = 0;
  for (uint32_t y = 0; y < years(); ++y) {
    running += yearly_weight_diff[y];
    out[y] += running * kYearUs;
  }
  return out;
}

void SiteSeconds::Encode(ByteWriter& w) const {
  w.I128(total);
  w.U64(years());
  for (const I128 us : Yearly()) {
    w.I128(us);
  }
}

bool SiteSeconds::Decode(ByteReader& r) {
  total = r.I128();
  const bool shaped = r.U64() == years();
  for (I128& us : yearly) {
    us = r.I128();
  }
  std::fill(yearly_weight_diff.begin(), yearly_weight_diff.end(), 0);
  return shaped;
}

void SiteSeconds::FillRates(SimTime horizon, uint32_t sites, double* mean,
                            std::vector<double>* yearly_rates, double* min_yearly) const {
  *mean = Rate(total, horizon, sites);
  const std::vector<I128> per_year = Yearly();
  yearly_rates->resize(years());
  for (uint32_t y = 0; y < years(); ++y) {
    (*yearly_rates)[y] = Rate(per_year[y], YearSpan(horizon, y), sites);
    *min_yearly = std::min(*min_yearly, (*yearly_rates)[y]);
  }
}

}  // namespace centsim
