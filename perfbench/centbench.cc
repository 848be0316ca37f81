// centbench: the measuring half of the repository benchmark. perfbench/run.py
// builds it, runs one workload per process and turns the JSON object this
// program prints as its last line into checked, named metrics.
//
//   centbench --workload <fifty_year|district|century_sampled> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//   centbench --record-reference
//
// --trace 0 times whole experiment calls through the public entry points
// for at least --seconds; --trace 1 attaches a SchedulerProfiler that times
// every event, probes each layer's public functions and writes the spans
// to --spans, which it requires. --record-reference prints the detailed
// engines' statistics at the reference seed, the values
// perfbench/reference.json records.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "probes.h"
#include "spans.h"
#include "src/core/experiment_api.h"
#include "src/sim/profiler.h"
#include "src/telemetry/run_manifest.h"
#include "workloads.h"

namespace centbench {
namespace {

using namespace centsim;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// Peak resident set of this process so far, in kB (VmHWM).
uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// A JSON array of `fn(item)` for each item.
template <typename T, typename Fn>
std::string JsonArray(const std::vector<T>& items, Fn fn) {
  std::string s = "[";
  for (const T& item : items) {
    if (s.size() > 1) {
      s += ',';
    }
    s += fn(item);
  }
  return s + "]";
}

// One checked experiment result: its digest and invariant violations.
struct Result {
  std::string digest;
  std::vector<std::string> errors;
};

std::string ResultJson(const Result& r) {
  return "{\"digest\":" + Quote(r.digest) + ",\"errors\":" + JsonArray(r.errors, Quote) + "}";
}

std::string StatsJson(const FleetStats& s) {
  return "{\"availability\":" + Num(s.availability) +
         ",\"failures_per_device_year\":" + Num(s.failures_per_device_year) +
         ",\"replacements_per_device_year\":" + Num(s.replacements_per_device_year) + "}";
}

// One timed call into an experiment entry point.
struct Call {
  double wall_s = 0.0;
  std::vector<Result> results;  // One per operation (replica or run).
  std::vector<FleetStats> stats;
};

Call RunFiftyYear(const FiftyYearConfig& config, uint32_t workers) {
  EnsembleOptions options;
  options.replicas = kFiftyYearReplicas;
  options.threads = workers;
  Call call;
  const auto start = Clock::now();
  const auto ensemble = EnsembleRunner<FiftyYearExperiment>::Run(config, options);
  call.wall_s = SecondsSince(start);
  for (const auto& replica : ensemble.replicas) {
    call.results.push_back(
        {Digest(replica.report),
         CheckReport(replica.report, config.horizon, config.report_interval)});
  }
  return call;
}

Call RunDistrict(const DistrictConfig& config) {
  Call call;
  const auto start = Clock::now();
  const DistrictReport report = RunDistrictScenario(config);
  call.wall_s = SecondsSince(start);
  call.results.push_back({Digest(report), CheckReport(report, config.horizon)});
  call.stats.push_back(StatsOf(report, config));
  return call;
}

Call RunCentury(const CenturyConfig& config) {
  Call call;
  const auto start = Clock::now();
  const CenturyReport report = RunCenturyScenario(config);
  call.wall_s = SecondsSince(start);
  std::vector<std::string> errors = CheckReport(report, config.horizon);
  if (config.sampling.enabled() && (!report.sampled || report.windows_measured == 0)) {
    errors.push_back("the sampled engine measured no window");
  }
  call.results.push_back({Digest(report), std::move(errors)});
  call.stats.push_back(StatsOf(report, config));
  return call;
}

Call RunWorkload(Workload w, uint64_t sim_seed, bool one_day) {
  switch (w) {
    case Workload::kFiftyYear: {
      FiftyYearConfig c = FiftyYearWorkload(sim_seed);
      c.horizon = one_day ? SimTime::Days(1) : c.horizon;
      return RunFiftyYear(c, kFiftyYearWorkers);
    }
    case Workload::kDistrict: {
      DistrictConfig c = DistrictWorkload(sim_seed);
      c.horizon = one_day ? SimTime::Days(1) : c.horizon;
      return RunDistrict(c);
    }
    case Workload::kCenturySampled: {
      CenturyConfig c = CenturyWorkload(sim_seed);
      c.horizon = one_day ? SimTime::Days(1) : c.horizon;
      return RunCentury(c);
    }
  }
  return {};
}

// The district under the sampled engine, with bench/bench_sampling.cc's
// window cap.
DistrictConfig Sampled(DistrictConfig c) {
  c.sampling.mode = SimMode::kSampled;
  c.sampling.max_windows = 16;
  return c;
}

// The district's accuracy is checked at 100k sites with the workload's
// density and policies: at 1M sites the sampled engine costs as much as a
// timed call.
DistrictConfig DistrictAccuracyConfig() {
  DistrictConfig c = DistrictWorkload(kReferenceSeed);
  c.device_count = 100000;
  c.area_km2 = 625.0;
  return c;
}

// The coarse level of each workload's model on the reference seed, with
// the detailed level where it is cheap enough to compute here; run.py
// compares against perfbench/reference.json otherwise. The fifty-year
// experiment has no sampled engine, so its coarse level is the one the
// sampled engines substitute in its layers: energy fast-forward and
// survival-table life draws.
std::string AccuracyJson(Workload w) {
  switch (w) {
    case Workload::kFiftyYear: {
      const FiftyYearConfig c = FiftyYearWorkload(kReferenceSeed);
      SpanRecorder unused;
      const EnergyLevels e = CompareEnergyLevels(c, unused, -1, 0);
      const LifeLevels l = CompareLifeLevels(c.horizon);
      auto levels = [&](double granted, const double* years) {
        return "{\"granted\":" + Num(granted) + ",\"device_life_years\":" + Num(years[0]) +
               ",\"gateway_life_years\":" + Num(years[1]) +
               ",\"hotspot_life_years\":" + Num(years[2]) + "}";
      };
      return "{\"kind\":\"energy_fast_forward+survival_table\",\"coarse\":" +
             levels(e.fast_forward_granted, l.table_years) +
             ",\"detailed\":" + levels(e.detailed_granted, l.detailed_years) + "}";
    }
    case Workload::kDistrict:
      return "{\"kind\":\"district_sampled\",\"coarse\":" +
             StatsJson(RunDistrict(Sampled(DistrictAccuracyConfig())).stats.front()) + "}";
    case Workload::kCenturySampled:
      return "{\"kind\":\"century_sampled\",\"coarse\":" +
             StatsJson(RunCentury(CenturyWorkload(kReferenceSeed)).stats.front()) + "}";
  }
  return "{}";
}

// The fifty-year ensemble must merge identically on 1 and 2 workers; a
// two-year horizon keeps the check cheap.
bool WorkersAgree(uint64_t sim_seed) {
  FiftyYearConfig c = FiftyYearWorkload(sim_seed);
  c.horizon = SimTime::Years(2);
  const Call one = RunFiftyYear(c, 1);
  const Call two = RunFiftyYear(c, 2);
  for (size_t i = 0; i < one.results.size(); ++i) {
    if (one.results[i].digest != two.results[i].digest) {
      return false;
    }
  }
  return one.results.size() == two.results.size();
}

std::string CallJson(const Call& c) {
  return "{\"wall_s\":" + Num(c.wall_s) + ",\"results\":" + JsonArray(c.results, ResultJson) +
         ",\"stats\":" + JsonArray(c.stats, StatsJson) + "}";
}

std::string Header(const char* mode, Workload w, uint64_t seed) {
  const BuildInfo& build = GetBuildInfo();
  return std::string("{\"mode\":\"") + mode + "\",\"workload\":\"" + WorkloadName(w) +
         "\",\"seed\":" + std::to_string(seed) +
         ",\"sim_seed\":" + std::to_string(SimSeed(w, seed)) +
         ",\"build_type\":" + Quote(build.build_type) + ",\"git_sha\":" + Quote(build.git_sha);
}

// Set-up repetitions per run: set-up is about a millisecond for fifty_year
// and up to a second at 1M sites.
int SetupRepetitions(Workload w) { return w == Workload::kFiftyYear ? 101 : 5; }

// Timed calls per run, at least: a fifty_year call takes about 10 s and
// varies by about 10% from call to call.
size_t MinCalls(Workload w) { return w == Workload::kFiftyYear ? 3 : 2; }

int Measure(Workload w, uint64_t seed, double seconds) {
  const uint64_t sim_seed = SimSeed(w, seed);
  std::vector<Call> calls;
  const auto start = Clock::now();
  while (calls.size() < MinCalls(w) || SecondsSince(start) < seconds) {
    calls.push_back(RunWorkload(w, sim_seed, /*one_day=*/false));
  }
  const double measured_s = SecondsSince(start);
  const uint64_t peak_rss_kb = PeakRssKb();
  // Set-up is timed in the warm process, after the timed calls.
  std::vector<Call> setup;
  for (int i = 0; i < SetupRepetitions(w); ++i) {
    setup.push_back(RunWorkload(w, sim_seed, /*one_day=*/true));
  }

  std::string out = Header("measure", w, seed);
  out += ",\"measured_s\":" + Num(measured_s);
  out += ",\"device_years_per_op\":" + Num(DeviceYearsPerOp(w));
  out += ",\"peak_rss_kb\":" + std::to_string(peak_rss_kb);
  out += ",\"setup\":" + JsonArray(setup, CallJson);
  out += ",\"calls\":" + JsonArray(calls, CallJson);
  out += ",\"accuracy\":" + AccuracyJson(w);
  if (w == Workload::kFiftyYear) {
    out += std::string(",\"workers_agree\":") + (WorkersAgree(sim_seed) ? "true" : "false");
  }
  std::cout << out << "}" << std::endl;
  return 0;
}

// --- Traced run -------------------------------------------------------------

SchedulerProfiler::Options EveryEvent() {
  SchedulerProfiler::Options o;
  o.time_sample_every = 1;
  o.max_spans = 2048;  // Enough to see the event mix; totals cover every event.
  return o;
}

// Profiler totals over one or more runs of a workload.
struct Profile {
  uint64_t events = 0;
  double loop_s = 0.0;     // Host time in the run loop.
  double closure_s = 0.0;  // Timed event closures.
  uint64_t depth_peak = 0;
  uint64_t report_events = 0;
  double report_ns_total = 0.0;

  void Add(const SchedulerProfiler& p) {
    for (const auto& c : p.Categories()) {
      events += c.count;
      closure_s += c.wall_ns_estimate * 1e-9;
      if (c.category == "device.report") {
        report_events += c.count;
        report_ns_total += c.wall_ns_estimate;
      }
    }
    for (const auto& d : p.depth_samples()) {
      depth_peak = std::max(depth_peak, d.depth);
    }
  }
};

// Per-layer metrics with units, in the order they were measured.
class MetricTable {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string s = "{";
    for (const Entry& e : entries_) {
      if (s.size() > 1) {
        s += ',';
      }
      s += Quote(e.name) + ":{\"value\":" + Num(e.value) + ",\"unit\":" + Quote(e.unit) + "}";
    }
    return s + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

struct TracedCall {
  std::string name;
  Result result;
};

class Tracer {
 public:
  Tracer(Workload w, uint64_t seed) : w_(w), seed_(seed) {}

  int Run(const std::string& spans_path) {
    const int root = spans_.Begin(std::string("centbench --trace 1 --workload ") + WorkloadName(w_),
                                  -1, NextRun("centbench"));
    FiftyYear(root);
    District(root);
    Century(root);
    spans_.End(root);

    std::string out = Header("trace", w_, seed_);
    out += ",\"metrics\":" + metrics_.Json();
    out += ",\"calls\":" + JsonArray(calls_, [](const TracedCall& c) {
      return "{\"name\":" + Quote(c.name) + ",\"result\":" + ResultJson(c.result) + "}";
    });
    out += ",\"reference\":{\"district\":" + reference_district_ +
           ",\"century_sampled\":" + reference_century_ + "}";
    out += ",\"ledger\":" + Quote(ledger_.str());
    out += ",\"spans_path\":" + Quote(spans_path);
    if (!spans_.WriteChromeTrace(spans_path)) {
      std::cerr << "centbench: cannot write " << spans_path << "\n";
    }
    std::cout << out << "}" << std::endl;
    return 0;
  }

 private:
  uint32_t NextRun(std::string name) {
    spans_.NameRun(++runs_, std::move(name));
    return runs_;
  }

  void Check(std::string name, Result r) { calls_.push_back({std::move(name), std::move(r)}); }

  // Scheduler metrics of the named workload, from its profiled run.
  void SchedulerMetrics(const Profile& p) {
    metrics_.Add("sim.events", static_cast<double>(p.events), "count");
    metrics_.Add("sim.events_per_s", static_cast<double>(p.events) / p.loop_s, "1/s");
    metrics_.Add("sim.queue_ns_per_event",
                 (p.loop_s - p.closure_s) * 1e9 / static_cast<double>(p.events), "ns");
    metrics_.Add("sim.queue_depth_peak", static_cast<double>(p.depth_peak), "count");
  }

  void Overhead(double traced_s, double untraced_s) {
    metrics_.Add("telemetry.trace_overhead_pct", 100.0 * (traced_s / untraced_s - 1.0), "%");
  }

  void FiftyYear(int root) {
    const uint32_t run = NextRun("fifty_year");
    const FiftyYearConfig base = FiftyYearWorkload(SimSeed(Workload::kFiftyYear, seed_));
    const int section = spans_.Begin("fifty_year", root, run);

    // The ensemble's replicas as EnsembleRunner runs them (one worker
    // thread each, seeds from DeriveReplicaSeed), each with a profiler.
    std::vector<FiftyYearReport> reports(kFiftyYearReplicas);
    std::vector<std::unique_ptr<SchedulerProfiler>> profilers(kFiftyYearReplicas);
    std::vector<double> epoch(kFiftyYearReplicas);
    std::vector<double> end(kFiftyYearReplicas);
    const int traced = spans_.Begin("fifty_year replicas, every event timed", section, run);
    {
      std::vector<std::thread> threads;
      for (uint32_t i = 0; i < kFiftyYearReplicas; ++i) {
        threads.emplace_back([&, i] {
          FiftyYearConfig c = base;
          c.seed = DeriveReplicaSeed(base.seed, i);
          profilers[i] = std::make_unique<SchedulerProfiler>(EveryEvent());
          epoch[i] = spans_.NowUs();
          c.profiler = profilers[i].get();
          reports[i] = RunFiftyYearExperiment(c);
          end[i] = spans_.NowUs();
        });
      }
      for (std::thread& t : threads) {
        t.join();
      }
    }
    spans_.End(traced, kFiftyYearReplicas);

    Profile profile;
    double replica_s = 0.0;
    uint64_t attempts = 0, offers = 0, no_energy = 0, owned_att = 0, owned_del = 0,
             helium_att = 0, helium_del = 0;
    uint64_t path_offers[2] = {0, 0};  // Owned, Helium.
    double witnesses = 0.0;
    for (uint32_t i = 0; i < kFiftyYearReplicas; ++i) {
      const FiftyYearReport& r = reports[i];
      const int id = spans_.Add("RunFiftyYearExperiment", epoch[i], end[i], traced,
                                NextRun("fifty_year replica " + std::to_string(i)));
      spans_.AddProfile(*profilers[i], epoch[i], id, runs_);
      replica_s += spans_.Seconds(id);
      profile.Add(*profilers[i]);
      profile.loop_s += r.wall_seconds;
      Check("fifty_year replica " + std::to_string(i) + " (profiled)",
            {Digest(r), CheckReport(r, base.horizon, base.report_interval)});
      int path = 0;
      for (const PathStats* p : {&r.owned_path, &r.helium_path}) {
        attempts += p->attempts;
        no_energy += p->outcomes[static_cast<size_t>(DeliveryOutcome::kNoEnergy)];
        // Energy refusals and duty-cycle deferrals never reach the medium.
        const uint64_t offered =
            p->attempts - p->outcomes[static_cast<size_t>(DeliveryOutcome::kNoEnergy)] -
            p->outcomes[static_cast<size_t>(DeliveryOutcome::kDutyCycleDeferred)];
        offers += offered;
        path_offers[path++] += offered;
      }
      owned_att += r.owned_path.attempts;
      owned_del += r.owned_path.delivered;
      helium_att += r.helium_path.attempts;
      helium_del += r.helium_path.delivered;
      witnesses += r.mean_witnesses / kFiftyYearReplicas;
    }
    metrics_.Add("sim.ensemble.efficiency",
                 replica_s / (kFiftyYearWorkers * spans_.Seconds(traced)), "fraction");
    if (w_ == Workload::kFiftyYear) {
      // The untraced baseline, through the public entry point.
      const int id = spans_.Begin("EnsembleRunner<FiftyYearExperiment>::Run", section, run);
      const Call call = RunFiftyYear(base, kFiftyYearWorkers);
      spans_.End(id, kFiftyYearReplicas);
      for (uint32_t i = 0; i < kFiftyYearReplicas; ++i) {
        Result result = call.results[i];
        if (result.digest != Digest(reports[i])) {
          result.errors.push_back("profiling changed the replica's results");
        }
        Check("fifty_year replica " + std::to_string(i) + " (untraced)", std::move(result));
      }
      SchedulerMetrics(profile);
      Overhead(spans_.Seconds(traced), call.wall_s);
    }

    // Layer probes on the first replica's inputs.
    FiftyYearConfig probe_cfg = base;
    probe_cfg.seed = DeriveReplicaSeed(base.seed, 0);
    const int probes = spans_.Begin("layer probes (fifty_year inputs)", section, run);
    const EnergyLevels energy = CompareEnergyLevels(probe_cfg, spans_, probes, run);
    const PacketPathProbe path = ProbePacketPath(probe_cfg, spans_, probes, run);
    spans_.End(probes);
    spans_.End(section);

    const double report_ns = profile.report_ns_total / static_cast<double>(profile.report_events);
    metrics_.Add("core.report_ns", report_ns, "ns");
    metrics_.Add("core.offer_ns", path.offer_ns, "ns");
    metrics_.Add("energy.try_transmit_ns", energy.try_transmit_ns, "ns");
    metrics_.Add("energy.no_energy_ratio",
                 static_cast<double>(no_energy) / static_cast<double>(attempts), "fraction");
    metrics_.Add("radio.link_loss_ns", path.link_loss_ns, "ns");
    metrics_.Add("radio.per_ns.802154", path.per_802154_ns, "ns");
    metrics_.Add("radio.per_ns.lora", path.per_lora_ns, "ns");
    // Offer scans every gateway of the frame's technology (grid off).
    const double links = (static_cast<double>(path_offers[0]) * base.owned_gateways +
                          static_cast<double>(path_offers[1]) * base.helium_hotspots) /
                         static_cast<double>(offers);
    metrics_.Add("radio.links_per_offer", links, "count");
    metrics_.Add("net.accept_ns", path.accept_ns, "ns");
    metrics_.Add("net.ingest_ns", path.ingest_ns, "ns");
    metrics_.Add("net.record_ns", path.record_ns, "ns");
    metrics_.Add("net.witnesses_per_frame", witnesses, "count");
    metrics_.Add("net.delivery_ratio.owned",
                 static_cast<double>(owned_del) / static_cast<double>(owned_att), "fraction");
    metrics_.Add("net.delivery_ratio.helium",
                 static_cast<double>(helium_del) / static_cast<double>(helium_att), "fraction");
    metrics_.Add("security.tag_ns", path.tag_ns, "ns");

    // The ledger: the probes, weighted by the run's exact call counts, set
    // against the profiled device.report closure.
    const double per_report = 1.0 / static_cast<double>(profile.report_events);
    ledger_ << "device.report " << report_ns << " ns = energy "
            << energy.try_transmit_ns * static_cast<double>(attempts) * per_report
            << " + offer " << path.offer_ns * static_cast<double>(offers) * per_report
            << " + tag " << path.tag_ns * static_cast<double>(offers) * per_report
            << " + rest (mean over " << profile.report_events << " reports)\n";
  }

  // A workload run inside a span, checked; returns the report.
  template <typename Config, typename RunFn>
  auto Timed(const std::string& name, int parent, uint32_t run, const Config& config, RunFn fn,
             int* span) {
    *span = spans_.Begin(name, parent, run);
    auto report = fn(config);
    spans_.End(*span);
    Check(name, {Digest(report), CheckReport(report, config.horizon)});
    return report;
  }

  // The named workload's untraced and profiled runs on the run seed: its
  // scheduler metrics and tracing overhead. Returns the profiled wall time
  // and fills `profile` (loop time left to the caller).
  template <typename Config, typename RunFn>
  auto Profiled(const char* what, int parent, uint32_t run, const Config& config, RunFn fn,
                Profile* profile, double* traced_s) {
    int untraced = 0;
    const auto plain = Timed(std::string(what) + " (untraced)", parent, run, config, fn, &untraced);
    SchedulerProfiler profiler(EveryEvent());
    const double epoch = spans_.NowUs();
    Config traced_cfg = config;
    traced_cfg.control.profiler = &profiler;
    const int id = spans_.Begin(std::string(what) + " (every event timed)", parent, run);
    auto report = fn(traced_cfg);
    spans_.End(id);
    spans_.AddProfile(profiler, epoch, id, run);
    Result result{Digest(report), CheckReport(report, config.horizon)};
    if (result.digest != Digest(plain)) {
      result.errors.push_back("profiling changed the run's results");
    }
    Check(std::string(what) + " (profiled)", std::move(result));
    profile->Add(profiler);
    *traced_s = spans_.Seconds(id);
    Overhead(*traced_s, spans_.Seconds(untraced));
    return report;
  }

  void District(int root) {
    const uint32_t run = NextRun("district");
    const int section = spans_.Begin("district", root, run);
    auto run_district = [](const DistrictConfig& c) { return RunDistrictScenario(c); };

    if (w_ == Workload::kDistrict) {
      const DistrictConfig config = DistrictWorkload(SimSeed(Workload::kDistrict, seed_));
      Profile p;
      double traced_s = 0.0;
      const DistrictReport r =
          Profiled("RunDistrictScenario", section, run, config, run_district, &p, &traced_s);
      p.loop_s = r.wall_seconds;
      SchedulerMetrics(p);
    }

    // The default engine, one shard lane and the sampled engine on the
    // reference seed.
    const DistrictConfig ref = DistrictWorkload(kReferenceSeed);
    DistrictConfig one_lane = ref;
    one_lane.shard.shards = 1;
    one_lane.shard.workers = 1;
    int d_span = 0;
    int s_span = 0;
    int p_span = 0;
    const DistrictReport detailed = Timed("RunDistrictScenario (reference seed)", section, run,
                                          ref, run_district, &d_span);
    Timed("RunShardedDistrictScenario (one lane)", section, run, one_lane,
          [](const DistrictConfig& c) { return RunShardedDistrictScenario(c); }, &s_span);
    Timed("RunDistrictScenario (sampled)", section, run, Sampled(ref), run_district, &p_span);
    const double detailed_s = spans_.Seconds(d_span);
    metrics_.Add("core.build_s", detailed.build_seconds, "s");
    metrics_.Add("core.fleet_bytes_per_device", detailed.fleet_bytes_per_device, "B");
    metrics_.Add("reliability.life_draws",
                 static_cast<double>(ref.device_count + detailed.device_replacements +
                                     detailed.gateway_count + detailed.gateway_repairs),
                 "count");
    metrics_.Add("sim.shard.one_lane_overhead_pct",
                 100.0 * (spans_.Seconds(s_span) / detailed_s - 1.0), "%");
    metrics_.Add("sim.sampling.speedup_district", detailed_s / spans_.Seconds(p_span), "x");
    // The accuracy reference, recomputed.
    const DistrictConfig acc = DistrictAccuracyConfig();
    int a_span = 0;
    const DistrictReport acc_detailed =
        Timed("RunDistrictScenario (accuracy config)", section, run, acc, run_district, &a_span);
    const DistrictReport acc_sampled = Timed("RunDistrictScenario (accuracy config, sampled)",
                                             section, run, Sampled(acc), run_district, &a_span);
    reference_district_ = "{\"detailed\":" + StatsJson(StatsOf(acc_detailed, acc)) +
                          ",\"coarse\":" + StatsJson(StatsOf(acc_sampled, acc)) + "}";

    const int probes = spans_.Begin("layer probes (district inputs)", section, run);
    metrics_.Add("reliability.sample_life_ns", ProbeSampleLifeNs(ref, spans_, probes, run), "ns");
    metrics_.Add("city.plan_s", ProbeCityPlanSeconds(ref, spans_, probes, run), "s");
    spans_.End(probes);
    spans_.End(section);
  }

  void Century(int root) {
    const uint32_t run = NextRun("century_sampled");
    const int section = spans_.Begin("century_sampled", root, run);
    auto run_century = [](const CenturyConfig& c) { return RunCenturyScenario(c); };

    if (w_ == Workload::kCenturySampled) {
      const CenturyConfig config = CenturyWorkload(SimSeed(Workload::kCenturySampled, seed_));
      Profile p;
      double traced_s = 0.0;
      Profiled("RunCenturyScenario", section, run, config, run_century, &p, &traced_s);
      p.loop_s = traced_s - SetupSeconds(config, section, run);
      SchedulerMetrics(p);
    }

    // The sampled engine, profiled, and the detailed engine on the
    // reference seed.
    const CenturyConfig ref = CenturyWorkload(kReferenceSeed);
    CenturyConfig detailed_cfg = ref;
    detailed_cfg.sampling = SamplingPlan{};
    const double setup_s = SetupSeconds(ref, section, run);
    SchedulerProfiler profiler(EveryEvent());
    const double epoch = spans_.NowUs();
    CenturyConfig traced_cfg = ref;
    traced_cfg.control.profiler = &profiler;
    int s_span = 0;
    int d_span = 0;
    const CenturyReport sampled = Timed("RunCenturyScenario (reference seed, every event timed)",
                                        section, run, traced_cfg, run_century, &s_span);
    spans_.AddProfile(profiler, epoch, s_span, run);
    const CenturyReport detailed = Timed("RunCenturyScenario (detailed engine)", section, run,
                                         detailed_cfg, run_century, &d_span);
    const double sampled_s = spans_.Seconds(s_span);
    Profile p;
    p.Add(profiler);
    metrics_.Add("sim.sampling.windows", sampled.windows_measured, "count");
    metrics_.Add("sim.sampling.skipped_fraction",
                 static_cast<double>(sampled.sim_skipped_us) / static_cast<double>(ref.horizon.micros()),
                 "fraction");
    metrics_.Add("sim.sampling.walk_s", sampled_s - setup_s - p.closure_s, "s");
    metrics_.Add("sim.sampling.speedup_century", spans_.Seconds(d_span) / sampled_s, "x");
    reference_century_ = "{\"detailed\":" + StatsJson(StatsOf(detailed, ref)) +
                         ",\"coarse\":" + StatsJson(StatsOf(sampled, ref)) + "}";
    spans_.End(section);
  }

  // Median host time of the run cut to one simulated day.
  double SetupSeconds(const CenturyConfig& config, int parent, uint32_t run) {
    std::vector<double> setup;
    for (int i = 0; i < SetupRepetitions(Workload::kCenturySampled); ++i) {
      CenturyConfig day = config;
      day.horizon = SimTime::Days(1);
      const int id = spans_.Begin("RunCenturyScenario (one day)", parent, run);
      RunCenturyScenario(day);
      spans_.End(id);
      setup.push_back(spans_.Seconds(id));
    }
    return Median(setup);
  }


  Workload w_;
  uint64_t seed_;
  SpanRecorder spans_;
  uint32_t runs_ = 0;
  MetricTable metrics_;
  std::vector<TracedCall> calls_;
  std::ostringstream ledger_;
  std::string reference_district_ = "{}";
  std::string reference_century_ = "{}";
};

int RecordReference() {
  const DistrictConfig district = DistrictAccuracyConfig();
  CenturyConfig century = CenturyWorkload(kReferenceSeed);
  century.sampling = SamplingPlan{};
  const Call d = RunDistrict(district);
  const Call c = RunCentury(century);
  std::cout << "{\"reference_seed\":" << kReferenceSeed << ",\"district\":{\"detailed\":"
            << StatsJson(d.stats.front()) << "},\"century_sampled\":{\"detailed\":"
            << StatsJson(c.stats.front()) << "}}" << std::endl;
  return 0;
}

int Usage() {
  std::cerr << "usage: centbench --workload <fifty_year|district|century_sampled> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n"
               "       centbench --record-reference\n";
  return 2;
}

}  // namespace
}  // namespace centbench

int main(int argc, char** argv) {
  using namespace centbench;
  if (std::strcmp(centsim::GetBuildInfo().build_type, "Release") != 0) {
    std::cerr << "centbench: refusing to time a '" << centsim::GetBuildInfo().build_type
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  std::string workload;
  std::string spans_path;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record-reference") {
      return RecordReference();
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  Workload w;
  if (!ParseWorkload(workload, &w) || trace < 0 || seconds <= 0.0 ||
      (trace == 1 && spans_path.empty())) {
    return Usage();
  }
  if (trace == 1) {
    return Tracer(w, seed).Run(spans_path);
  }
  return Measure(w, seed, seconds);
}
