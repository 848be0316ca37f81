#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "src/telemetry/run_manifest.h"

namespace centbench {

using namespace centsim;

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kFiftyYear, Workload::kDistrict, Workload::kCenturySampled}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kFiftyYear:
      return "fifty_year";
    case Workload::kDistrict:
      return "district";
    case Workload::kCenturySampled:
      return "century_sampled";
  }
  return "unknown";
}

uint64_t SimSeed(Workload w, uint64_t workload_seed) {
  uint64_t z = workload_seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(w) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The §4 two-path experiment in E5's shape, reporting hourly.
FiftyYearConfig FiftyYearWorkload(uint64_t sim_seed) {
  FiftyYearConfig c;
  c.seed = sim_seed;
  c.devices_802154 = 4;
  c.devices_lora = 4;
  c.owned_gateways = 2;
  c.helium_hotspots = 4;
  c.report_interval = SimTime::Hours(1);
  c.horizon = SimTime::Years(50);
  return c;
}

// One million sites at 160 sites/km^2; every other field keeps its default.
DistrictConfig DistrictWorkload(uint64_t sim_seed) {
  DistrictConfig c;
  c.seed = sim_seed;
  c.device_count = 1000000;
  c.area_km2 = 6250.0;
  c.horizon = SimTime::Years(50);
  return c;
}

// The Ship-of-Theseus century at 1M sites with 3-day service rounds over
// 16 zones, under the sampled engine with bench/bench_sampling.cc's plan.
CenturyConfig CenturyWorkload(uint64_t sim_seed) {
  CenturyConfig c;
  c.seed = sim_seed;
  c.fleet_size = 1000000;
  c.horizon = SimTime::Years(100);
  c.batch.zone_count = 16;
  c.batch.cycle_period = SimTime::Days(3);
  c.device_class = DeviceClassKind::kEnergyHarvesting;
  c.sampling.mode = SimMode::kSampled;
  c.sampling.detailed_window = SimTime::Days(7);
  c.sampling.sample_period = SimTime::Days(70);
  c.sampling.ci_target = 0.01;
  c.sampling.min_windows = 8;
  c.sampling.max_windows = 16;
  return c;
}

double DeviceYearsPerOp(Workload w) {
  switch (w) {
    case Workload::kFiftyYear: {
      const FiftyYearConfig c = FiftyYearWorkload(0);
      return static_cast<double>(c.devices_802154 + c.devices_lora) * c.horizon.ToYears() *
             kFiftyYearReplicas;
    }
    case Workload::kDistrict: {
      const DistrictConfig c = DistrictWorkload(0);
      return static_cast<double>(c.device_count) * c.horizon.ToYears();
    }
    case Workload::kCenturySampled: {
      const CenturyConfig c = CenturyWorkload(0);
      return static_cast<double>(c.fleet_size) * c.horizon.ToYears();
    }
  }
  return 0.0;
}

namespace {

class Checker {
 public:
  void Unit(const char* what, double v) {
    if (!(v >= 0.0 && v <= 1.0)) {
      Fail(std::string(what) + " = " + Num(v) + " lies outside [0, 1]");
    }
  }
  void That(bool ok, const std::string& what) {
    if (!ok) {
      Fail(what);
    }
  }
  void Fail(std::string what) { errors_.push_back(std::move(what)); }
  std::vector<std::string> Take() { return std::move(errors_); }

 private:
  std::vector<std::string> errors_;
};

uint32_t YearsIn(SimTime horizon) {
  return static_cast<uint32_t>(std::ceil(horizon.ToYears()));
}

void CheckPath(Checker& c, const char* name, const PathStats& p) {
  const uint64_t sum = std::accumulate(p.outcomes.begin(), p.outcomes.end(), uint64_t{0});
  c.That(sum == p.attempts, std::string(name) + ": outcome counts sum to " +
                                std::to_string(sum) + ", attempts " + std::to_string(p.attempts));
  c.That(p.delivered <= p.attempts, std::string(name) + ": delivered exceeds attempts");
  c.That(p.delivered == p.outcomes[static_cast<size_t>(DeliveryOutcome::kDelivered)],
         std::string(name) + ": delivered differs from the delivered outcome count");
  c.Unit(name, p.group_weekly_uptime);
  c.Unit(name, p.mean_device_weekly_uptime);
}

// Double as exact hexfloat text (the digest input).
void Put(std::ostringstream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a|", v);
  out << buf;
}

}  // namespace

std::vector<std::string> CheckReport(const FiftyYearReport& r, SimTime horizon,
                                     SimTime report_interval) {
  Checker c;
  CheckPath(c, "owned_path", r.owned_path);
  CheckPath(c, "helium_path", r.helium_path);
  c.Unit("weekly_uptime", r.weekly_uptime);
  c.That(r.device_replacements <= r.device_failures, "more replacements than failures");
  // Each device reports once per interval while alive, plus retries after
  // an energy refusal; replacement gaps take a few percent away.
  const uint32_t devices = r.owned_path.device_count + r.helium_path.device_count;
  const double expected = static_cast<double>(devices) * (horizon.micros() / report_interval.micros());
  const double attempts = static_cast<double>(r.owned_path.attempts + r.helium_path.attempts);
  c.That(devices > 0 && attempts >= 0.9 * expected && attempts <= 1.1 * expected,
         "attempts " + Num(attempts) + " are not horizon / interval x devices = " + Num(expected));
  return c.Take();
}

std::vector<std::string> CheckReport(const DistrictReport& r, SimTime horizon) {
  Checker c;
  c.Unit("initial_coverage", r.initial_coverage);
  c.Unit("mean_device_availability", r.mean_device_availability);
  c.Unit("mean_service_availability", r.mean_service_availability);
  c.That(r.mean_service_availability <= r.mean_device_availability,
         "service availability exceeds device availability");
  c.That(r.yearly_service.size() == YearsIn(horizon),
         std::to_string(r.yearly_service.size()) + " yearly entries for " +
             std::to_string(YearsIn(horizon)) + " years");
  for (double v : r.yearly_service) {
    c.Unit("yearly_service", v);
  }
  c.That(r.gateway_count > 0, "no gateways planned");
  c.That(r.device_replacements <= r.device_failures, "more replacements than failures");
  return c.Take();
}

std::vector<std::string> CheckReport(const CenturyReport& r, SimTime horizon) {
  Checker c;
  c.Unit("mean_availability", r.mean_availability);
  c.Unit("min_yearly_availability", r.min_yearly_availability);
  c.That(r.yearly_availability.size() == YearsIn(horizon),
         std::to_string(r.yearly_availability.size()) + " yearly entries for " +
             std::to_string(YearsIn(horizon)) + " years");
  for (double v : r.yearly_availability) {
    c.Unit("yearly_availability", v);
  }
  c.That(r.total_replacements <= r.units_deployed, "more replacements than units deployed");
  return c.Take();
}

std::string Digest(const FiftyYearReport& r) {
  std::ostringstream out;
  Put(out, r.weekly_uptime);
  out << r.longest_gap_weeks << '|' << r.total_packets << '|';
  for (const PathStats* p : {&r.owned_path, &r.helium_path}) {
    out << p->device_count << '|' << p->attempts << '|' << p->delivered << '|';
    Put(out, p->group_weekly_uptime);
    Put(out, p->mean_device_weekly_uptime);
    for (uint64_t o : p->outcomes) {
      out << o << '|';
    }
  }
  for (uint64_t t : r.tier_attribution) {
    out << t << '|';
  }
  out << r.device_failures << '|' << r.device_replacements << '|' << r.owned_gateway_failures
      << '|' << r.hotspot_failures << '|' << r.maintenance_repairs << '|'
      << r.maintenance_refused << '|';
  Put(out, r.maintenance_hours);
  Put(out, r.maintenance_cost_usd);
  out << r.credits_provisioned << '|' << r.credits_spent << '|' << r.credits_refused << '|'
      << r.domain_renewals << '|' << r.domain_lapses << '|' << r.auth_rejected << '|'
      << r.replay_rejected << '|' << r.custodian_handovers << '|';
  Put(out, r.final_knowledge);
  out << r.frames_deduplicated << '|';
  Put(out, r.mean_witnesses);
  return ConfigDigest(out.str());
}

std::string Digest(const DistrictReport& r) {
  std::ostringstream out;
  out << r.gateway_count << '|';
  Put(out, r.initial_coverage);
  Put(out, r.mean_device_availability);
  Put(out, r.mean_service_availability);
  Put(out, r.min_yearly_service);
  out << r.device_failures << '|' << r.device_replacements << '|' << r.gateway_failures << '|'
      << r.gateway_repairs << '|';
  for (double v : r.yearly_service) {
    Put(out, v);
  }
  return ConfigDigest(out.str());
}

std::string Digest(const CenturyReport& r) {
  std::ostringstream out;
  Put(out, r.mean_availability);
  Put(out, r.min_yearly_availability);
  out << r.total_failures << '|' << r.total_replacements << '|' << r.proactive_replacements
      << '|' << r.units_deployed << '|';
  Put(out, r.max_unit_generations);
  for (double v : r.yearly_availability) {
    Put(out, v);
  }
  out << r.windows_measured << '|' << r.sim_skipped_us << '|';
  for (const MetricCi& ci : r.metric_cis) {
    out << ci.name << '|';
    Put(out, ci.mean);
    Put(out, ci.ci_half_width);
  }
  return ConfigDigest(out.str());
}

FleetStats StatsOf(const DistrictReport& r, const DistrictConfig& c) {
  const double device_years = static_cast<double>(c.device_count) * c.horizon.ToYears();
  return {r.mean_service_availability, static_cast<double>(r.device_failures) / device_years,
          static_cast<double>(r.device_replacements) / device_years};
}

FleetStats StatsOf(const CenturyReport& r, const CenturyConfig& c) {
  const double device_years = static_cast<double>(c.fleet_size) * c.horizon.ToYears();
  return {r.mean_availability, static_cast<double>(r.total_failures) / device_years,
          static_cast<double>(r.total_replacements) / device_years};
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace centbench
