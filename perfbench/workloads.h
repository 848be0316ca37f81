// The benchmark's three workloads: their configs (built only from the
// workload seed), the invariants every report must satisfy, and a digest
// of the simulated results with perf fields left out.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/experiment_api.h"
#include "src/sim/time.h"

namespace centbench {

enum class Workload { kFiftyYear, kDistrict, kCenturySampled };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// Replicas per ensemble call and the workers that run them.
inline constexpr uint32_t kFiftyYearReplicas = 2;
inline constexpr uint32_t kFiftyYearWorkers = 2;

// The accuracy reference seed: max_rel_err is measured on it whatever the
// workload seed, so the metric is one exact number per build.
inline constexpr uint64_t kReferenceSeed = 1;

// The simulation seed a workload seed maps to (SplitMix64, so nearby
// workload seeds give unrelated simulation seeds).
uint64_t SimSeed(Workload w, uint64_t workload_seed);

centsim::FiftyYearConfig FiftyYearWorkload(uint64_t sim_seed);
centsim::DistrictConfig DistrictWorkload(uint64_t sim_seed);
centsim::CenturyConfig CenturyWorkload(uint64_t sim_seed);

// Devices x simulated years x replicas for one operation.
double DeviceYearsPerOp(Workload w);

// Invariant violations of one report; empty means the report is sound.
// `horizon` is the config horizon the report came from.
std::vector<std::string> CheckReport(const centsim::FiftyYearReport& r, centsim::SimTime horizon,
                                     centsim::SimTime report_interval);
std::vector<std::string> CheckReport(const centsim::DistrictReport& r, centsim::SimTime horizon);
std::vector<std::string> CheckReport(const centsim::CenturyReport& r, centsim::SimTime horizon);

// Hexfloat digests of the simulated statistics only: wall times, event
// counts and other engine accounting are excluded, so a perf-only change
// keeps every digest.
std::string Digest(const centsim::FiftyYearReport& r);
std::string Digest(const centsim::DistrictReport& r);
std::string Digest(const centsim::CenturyReport& r);

// The accuracy statistics shared by the district and century workloads:
// mean availability, failures and replacements per device-year.
struct FleetStats {
  double availability = 0.0;
  double failures_per_device_year = 0.0;
  double replacements_per_device_year = 0.0;
};
FleetStats StatsOf(const centsim::DistrictReport& r, const centsim::DistrictConfig& c);
FleetStats StatsOf(const centsim::CenturyReport& r, const centsim::CenturyConfig& c);

// JSON string literal with escaping.
std::string Quote(const std::string& s);
// Shortest round-tripping decimal for a double.
std::string Num(double v);

}  // namespace centbench

#endif  // PERFBENCH_WORKLOADS_H_
