#include "src/sim/sampling.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace centsim {

const char* SimModeName(SimMode mode) {
  switch (mode) {
    case SimMode::kDetailed:
      return "detailed";
    case SimMode::kSampled:
      return "sampled";
  }
  return "unknown";
}

std::vector<std::string> SamplingPlan::Validate() const {
  std::vector<std::string> problems;
  if (!enabled()) {
    return problems;
  }
  if (detailed_window <= SimTime()) {
    problems.push_back("sampling.detailed_window must be positive");
  }
  if (sample_period <= SimTime()) {
    problems.push_back("sampling.sample_period must be positive");
  }
  if (!(ci_target > 0.0)) {
    problems.push_back("sampling.ci_target must be positive");
  }
  if (min_windows < 2) {
    problems.push_back("sampling.min_windows must be >= 2 (a CI needs variance)");
  }
  if (max_windows != 0 && max_windows < min_windows) {
    problems.push_back("sampling.max_windows must be 0 or >= min_windows");
  }
  return problems;
}

double MetricCi::RelativeHalfWidth() const {
  if (mean == 0.0) {
    return ci_half_width == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return ci_half_width / std::fabs(mean);
}

SamplingController::SamplingController(Scheduler& scheduler, SamplingPlan plan)
    : scheduler_(scheduler), plan_(std::move(plan)) {}

void SamplingController::RegisterDomain(std::string name, FastForwardFn fn) {
  domains_.push_back({std::move(name), std::move(fn)});
}

void SamplingController::TrackMetric(std::string name, const SampleSet* samples) {
  tracked_.push_back({std::move(name), samples});
}

void SamplingController::SetWindowHooks(WindowFn begin, WindowFn end) {
  begin_window_ = std::move(begin);
  end_window_ = std::move(end);
}

bool SamplingController::Converged() const {
  if (tracked_.empty()) {
    return false;
  }
  for (const Tracked& t : tracked_) {
    if (t.samples->count() < plan_.min_windows) {
      return false;
    }
    const double mean = t.samples->Mean();
    const double half = t.samples->CiHalfWidth(SamplingPlan::kConfidence);
    // A zero-variance metric (every window identical) is converged by
    // definition, mean zero or not.
    if (half == 0.0) {
      continue;
    }
    if (mean == 0.0 || half > plan_.ci_target * std::fabs(mean)) {
      return false;
    }
  }
  return true;
}

std::vector<MetricCi> SamplingController::MetricSummaries() const {
  std::vector<MetricCi> out;
  out.reserve(tracked_.size());
  for (const Tracked& t : tracked_) {
    MetricCi ci;
    ci.name = t.name;
    ci.mean = t.samples->Mean();
    const double half = t.samples->CiHalfWidth(SamplingPlan::kConfidence);
    ci.ci_half_width = std::isfinite(half) ? half : 0.0;
    ci.windows = static_cast<uint32_t>(t.samples->count());
    out.push_back(std::move(ci));
  }
  return out;
}

void SamplingController::FastForward(SimTime from, SimTime to) {
  if (to <= from) {
    return;
  }
  for (Domain& d : domains_) {
    d.fn(from, to);
  }
  // The scheduler must be quiescent here: RestoreClock asserts the queue
  // is empty, which is exactly the contract (drivers arm events strictly
  // inside windows, so between windows nothing is pending).
  scheduler_.RestoreClock(to, scheduler_.executed_count(), scheduler_.late_schedule_count());
  outcome_.sim_skipped_us += (to - from).micros();
  PublishProgress(SimMode::kSampled);
}

void SamplingController::PublishProgress(SimMode level) {
  if (progress_ == nullptr) {
    return;
  }
  progress_->PublishSampling(level == SimMode::kSampled ? 1 : 0, outcome_.sim_skipped_us,
                             scheduler_.Now().micros(), scheduler_.executed_count());
}

SamplingOutcome SamplingController::Run(SimTime horizon) {
  outcome_ = SamplingOutcome{};
  SimTime t = scheduler_.Now();
  while (t < horizon) {
    SimTime w1 = t + plan_.detailed_window;
    if (w1 > horizon) {
      w1 = horizon;
    }
    if (begin_window_) {
      begin_window_(t, w1);
    }
    PublishProgress(SimMode::kDetailed);
    scheduler_.DrainToBarrier(w1);
    outcome_.sim_detailed_us += (w1 - t).micros();
    if (end_window_) {
      end_window_(t, w1);
    }
    ++outcome_.windows_measured;
    if (w1 >= horizon) {
      break;
    }
    const bool capped =
        plan_.max_windows != 0 && outcome_.windows_measured >= plan_.max_windows;
    const bool converged = Converged();
    SimTime next;
    if (converged || capped) {
      next = horizon;
    } else {
      next = t + plan_.sample_period;
      if (next < w1) {
        next = w1;  // Period shorter than the window: back-to-back detail.
      }
      if (next > horizon) {
        next = horizon;
      }
    }
    FastForward(w1, next);
    t = next;
  }
  outcome_.converged = Converged();
  PublishProgress(SimMode::kDetailed);
  return outcome_;
}

}  // namespace centsim
