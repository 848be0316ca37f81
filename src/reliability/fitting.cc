#include "src/reliability/fitting.h"

#include <cmath>

namespace centsim {
namespace {

// Profile-likelihood shape equation for right-censored Weibull MLE:
//   g(k) = (1/r) sum_{failures} ln t_i + 1/k
//          - (sum_all t_i^k ln t_i) / (sum_all t_i^k)
// g is strictly decreasing in k, so bisection is safe.
double ShapeEquation(const std::vector<SurvivalObservation>& obs, double k) {
  double fail_log_sum = 0.0;
  double r = 0.0;
  double weighted = 0.0;
  double total = 0.0;
  for (const auto& o : obs) {
    const double t = o.time.ToYears();
    if (t <= 0) {
      continue;
    }
    const double tk = std::pow(t, k);
    const double lt = std::log(t);
    weighted += tk * lt;
    total += tk;
    if (o.failed) {
      fail_log_sum += lt;
      r += 1.0;
    }
  }
  if (r == 0 || total == 0) {
    return 0.0;
  }
  return fail_log_sum / r + 1.0 / k - weighted / total;
}

}  // namespace

SimTime WeibullFit::Mttf() const {
  return SimTime::Years(scale_years * std::tgamma(1.0 + 1.0 / shape));
}

double WeibullFit::SurvivalAt(SimTime t) const {
  return std::exp(-std::pow(t.ToYears() / scale_years, shape));
}

std::optional<WeibullFit> FitWeibull(const std::vector<SurvivalObservation>& observations,
                                     uint32_t max_iterations) {
  uint32_t failures = 0;
  for (const auto& o : observations) {
    if (o.failed && o.time.ToYears() > 0) {
      ++failures;
    }
  }
  if (failures < 3) {
    return std::nullopt;
  }

  // Bracket the root of the decreasing function g(k).
  double lo = 0.05;
  double hi = 50.0;
  if (ShapeEquation(observations, lo) < 0 || ShapeEquation(observations, hi) > 0) {
    return std::nullopt;
  }
  WeibullFit fit;
  for (fit.iterations = 0; fit.iterations < max_iterations; ++fit.iterations) {
    const double mid = 0.5 * (lo + hi);
    const double g = ShapeEquation(observations, mid);
    if (std::abs(g) < 1e-10 || (hi - lo) < 1e-9) {
      lo = hi = mid;
      break;
    }
    if (g > 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  fit.shape = 0.5 * (lo + hi);
  fit.converged = true;

  // Scale from the profile: eta^k = sum t_i^k / r.
  double total = 0.0;
  double r = 0.0;
  for (const auto& o : observations) {
    const double t = o.time.ToYears();
    if (t <= 0) {
      continue;
    }
    total += std::pow(t, fit.shape);
    if (o.failed) {
      r += 1.0;
    }
  }
  fit.scale_years = std::pow(total / r, 1.0 / fit.shape);
  return fit;
}

std::optional<WeibullFit> FitWeibull(const KaplanMeier& km) {
  std::vector<SurvivalObservation> observations;
  observations.reserve(km.count());
  km.ForEachObservation(
      [&observations](const SurvivalObservation& o) { observations.push_back(o); });
  return FitWeibull(observations);
}

}  // namespace centsim
