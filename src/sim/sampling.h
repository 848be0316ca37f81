// SMARTS-style sampled simulation: the multi-level time-advance machine
// (ROADMAP item 2).
//
// A century of µs-resolution events is mostly quiescent duty-cycle
// ticking, so the paper's statistical metrics (weekly uptime, replacement
// cadence, energy outages) do not need every tick simulated. The
// SamplingController alternates two levels of fidelity:
//
//   detailed window   the existing Scheduler runs normally over
//                     [w, w + detailed_window): the driver arms every
//                     domain event that falls inside the window and the
//                     controller drains to the window barrier
//                     (Scheduler::DrainToBarrier);
//   fast-forward      each registered domain analytically advances its
//                     state over the skipped span (closed-form harvester
//                     integrals, hazard-rate survival walks), then the
//                     controller jumps the quiescent scheduler's clock to
//                     the next sample point (Scheduler::RestoreClock).
//
// Each measured window contributes one observation per tracked metric to
// a SampleSet; per-metric confidence intervals (Student-t, src/sim/stats)
// decide when enough windows have been measured. Once every tracked
// metric's relative CI half-width is inside `ci_target`, the controller
// stops sampling and fast-forwards the remainder of the horizon in one
// span.
//
// Contract with the driver: events armed for a window must fire strictly
// before the window barrier (DrainToBarrier asserts quiescence), and the
// scheduler must be EMPTY between windows — fast-forward moves the clock
// with RestoreClock, which refuses to jump over pending events. Domains
// that key their boundary RNG draws per entity (RandomStream::Derive)
// make the composite trajectory independent of window placement: a
// zero-length fast-forward is a bit-identical no-op and moving a window
// never perturbs another entity's draws.

#ifndef SRC_SIM_SAMPLING_H_
#define SRC_SIM_SAMPLING_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/run_progress.h"
#include "src/sim/scheduler.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace centsim {

// Which time-advance machine a run uses. kDetailed is the serial engine
// unchanged; kSampled is the detailed-window / fast-forward alternation.
enum class SimMode : uint8_t {
  kDetailed = 0,
  kSampled = 1,
};

const char* SimModeName(SimMode mode);

// Sampling knobs carried by experiment configs (DistrictConfig,
// CenturyConfig), styled after SnapshotPlan/ShardPlan: a
// default-constructed plan means "serial engine, byte-for-byte" and every
// golden digest is unchanged.
struct SamplingPlan {
  // Two-sided confidence level of every interval (Student-t).
  static constexpr double kConfidence = 0.95;

  SimMode mode = SimMode::kDetailed;
  // Length of each measured detailed window.
  SimTime detailed_window = SimTime::Days(7);
  // Distance between successive window *starts*; the gap
  // (sample_period - detailed_window) is fast-forwarded. A period no
  // longer than the window degenerates to back-to-back detailed windows.
  SimTime sample_period = SimTime::Days(70);
  // Relative confidence-interval half-width at which a tracked metric
  // counts as converged (0.01 = +/-1% of the running mean).
  double ci_target = 0.01;
  // Windows to measure before convergence may be declared; also the
  // minimum sample count for an honest t-interval.
  uint32_t min_windows = 8;
  // Hard cap on measured windows (0 = no cap): after this many windows
  // the controller fast-forwards to the horizon even if some metric's
  // interval is still wide (reported via SamplingOutcome::converged).
  uint32_t max_windows = 0;

  bool enabled() const { return mode == SimMode::kSampled; }

  // Actionable diagnostics (non-positive window, period or target, too
  // few windows...). Empty means valid. Ignored when the plan is off.
  std::vector<std::string> Validate() const;
};

// What the controller did, for reports and run_status rows.
struct SamplingOutcome {
  uint32_t windows_measured = 0;
  int64_t sim_skipped_us = 0;   // Total span covered by fast-forward.
  int64_t sim_detailed_us = 0;  // Total span covered by the scheduler.
  // True when every tracked metric met ci_target (not when the run hit
  // max_windows or the horizon with intervals still wide).
  bool converged = false;
};

// One tracked metric's converged-interval summary for reports.
struct MetricCi {
  std::string name;
  double mean = 0.0;
  double ci_half_width = 0.0;  // At SamplingPlan::kConfidence.
  uint32_t windows = 0;        // Observations behind the interval.
  // Relative half-width (half_width / |mean|); +inf when mean == 0.
  double RelativeHalfWidth() const;
};

// The warming -> measurement -> fast-forward machine. Owns no simulation
// state: the driver registers domain fast-forward callbacks and window
// hooks, and keeps ownership of the per-metric SampleSets the controller
// watches for convergence.
class SamplingController {
 public:
  // `fast_forward(from, to)` analytically advances one domain's state
  // over [from, to). Called with from == to never (zero spans are
  // skipped); domains must still make a zero-length call a no-op for the
  // parity tests that invoke them directly.
  using FastForwardFn = std::function<void(SimTime from, SimTime to)>;
  // `begin(window_start, window_end)`: arm every event inside the window.
  // `end(window_start, window_end)`: harvest window metrics into the
  // tracked SampleSets.
  using WindowFn = std::function<void(SimTime window_start, SimTime window_end)>;

  SamplingController(Scheduler& scheduler, SamplingPlan plan);

  void RegisterDomain(std::string name, FastForwardFn fn);
  // `samples` must outlive the controller; one Add per measured window is
  // the expected usage (the controller only reads).
  void TrackMetric(std::string name, const SampleSet* samples);
  void SetWindowHooks(WindowFn begin, WindowFn end);
  // Optional: progress mailbox kept honest while the sampler skips
  // decades (mode + sim_skipped_us columns in run_status.json).
  void AttachProgress(ProgressCell* cell) { progress_ = cell; }

  // Runs the machine from Scheduler::Now() to `horizon`: alternate
  // measured detailed windows with domain fast-forward until every
  // tracked metric converges, then fast-forward the tail in one span.
  // Returns what happened. The scheduler ends at Now() == horizon.
  SamplingOutcome Run(SimTime horizon);

  // True when every tracked metric has >= min_windows observations and a
  // relative CI half-width <= ci_target. Vacuously false with no tracked
  // metrics (the controller then measures every window up to max_windows
  // or the horizon).
  bool Converged() const;

  // Converged-interval summaries for the tracked metrics, in
  // registration order.
  std::vector<MetricCi> MetricSummaries() const;

  const SamplingOutcome& outcome() const { return outcome_; }

 private:
  struct Domain {
    std::string name;
    FastForwardFn fn;
  };
  struct Tracked {
    std::string name;
    const SampleSet* samples = nullptr;
  };

  // Fast-forwards every domain over [from, to) and jumps the (empty)
  // scheduler clock to `to`.
  void FastForward(SimTime from, SimTime to);
  void PublishProgress(SimMode level);

  Scheduler& scheduler_;
  SamplingPlan plan_;
  std::vector<Domain> domains_;
  std::vector<Tracked> tracked_;
  WindowFn begin_window_;
  WindowFn end_window_;
  ProgressCell* progress_ = nullptr;
  SamplingOutcome outcome_;
};

}  // namespace centsim

#endif  // SRC_SIM_SAMPLING_H_
