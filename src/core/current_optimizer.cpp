#include "core/current_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/response.h"
#include "obs/obs.h"
#include "par/parallel.h"

namespace tfc::core {

namespace {

/// Probes per section-search round.
constexpr std::size_t kSectionProbes = 8;

double peak_or_inf(const std::optional<double>& peak) {
  return peak ? *peak : std::numeric_limits<double>::infinity();
}

/// Search interval [0, hi]: up to just below λ_m; without a finite λ_m, a
/// generous multiple of the single-device optimal pumping current.
double search_ceiling(const engine::SolveContext& context,
                      const CurrentOptimizerOptions& options,
                      const std::optional<double>& lambda_m) {
  const tec::ElectroThermalSystem& system = context.system();
  return lambda_m ? options.runaway_fraction * *lambda_m
                  : 4.0 * system.device().max_pumping_current(
                              system.model().geometry().ambient + 60.0);
}

/// Materialize the operating point at res.current through \p solve.
void finish_at(const std::function<std::optional<tec::OperatingPoint>(double)>& solve,
               CurrentOptimum& res) {
  auto op = solve(res.current);
  if (!op) throw std::runtime_error("optimize_current: optimum not solvable");
  ++res.objective_evaluations;
  res.operating_point = std::move(*op);
  res.peak_tile_temperature = res.operating_point.peak_tile_temperature;
  res.tec_input_power = res.operating_point.tec_input_power;
}

}  // namespace

SectionSearchResult section_search(const std::function<double(double)>& objective,
                                   double hi, double tol, std::size_t max_evaluations,
                                   const std::function<double(double)>& exact) {
  constexpr std::size_t k = kSectionProbes;
  SectionSearchResult res;
  double a = 0.0, b = hi;
  std::vector<double> xs(k);
  while (b - a > tol && res.evaluations + k <= max_evaluations) {
    for (std::size_t j = 0; j < k; ++j) {
      xs[j] = a + (b - a) * double(j + 1) / double(k + 1);
    }
    const std::vector<double> fs =
        par::parallel_map(k, [&](std::size_t j) { return objective(xs[j]); });
    res.evaluations += k;
    // First minimum wins: a deterministic tie-break, and for a convex
    // objective the left-most minimizer of the sampled values.
    std::size_t m = 0;
    for (std::size_t j = 1; j < k; ++j) {
      if (fs[j] < fs[m]) m = j;
    }
    if (exact && std::isfinite(fs[m])) {
      // A probe outside the band is worse than the surrogate's best on the
      // exact objective too; inside it, only exact values may decide.
      const double band = 2.0 * kSurrogateRelTol * std::abs(fs[m]);
      std::vector<std::size_t> near;
      for (std::size_t j = 0; j < k; ++j) {
        if (fs[j] - fs[m] <= band) near.push_back(j);
      }
      if (near.size() > 1) {
        // Serial on the calling thread: one warm workspace serves every
        // near-tie, where the pool would warm a refactorization workspace
        // per thread (the surrogate probes need none).
        std::vector<double> es(near.size());
        for (std::size_t c = 0; c < near.size(); ++c) es[c] = exact(xs[near[c]]);
        res.exact_evaluations += near.size();
        std::size_t best = 0;
        for (std::size_t c = 1; c < near.size(); ++c) {
          if (es[c] < es[best]) best = c;
        }
        m = near[best];
      }
    }
    a = (m == 0) ? a : xs[m - 1];
    b = (m == k - 1) ? b : xs[m + 1];
  }
  res.x = 0.5 * (a + b);
  res.converged = (b - a) <= tol;
  return res;
}

PeakReadout probe_readout(const engine::SolveContext& context) {
  return {[&context](double i) { return context.probe_peak(i); },
          [&context](double i) { return context.solve_probe(i); },
          [&context](double i) { return context.refactor_peak(i); }};
}

CurrentOptimum optimize_current(const engine::SolveContext& context,
                                const CurrentOptimizerOptions& options) {
  return optimize_current(context, options, probe_readout(context));
}

CurrentOptimum optimize_current(const engine::SolveContext& context,
                                const CurrentOptimizerOptions& options,
                                const PeakReadout& readout) {
  TFC_SPAN("optimize_current");
  obs::MetricsRegistry::global().counter("current_opt.calls").increment();
  CurrentOptimum res;

  if (context.device_count() == 0) {
    // No devices: current has no effect; report the passive solution.
    res.converged = true;
    finish_at(readout.solve, res);
    return res;
  }

  res.lambda_m = context.runaway_limit(options.runaway);
  std::function<double(double)> exact;
  if (readout.exact_peak) {
    exact = [&](double i) { return peak_or_inf(readout.exact_peak(i)); };
  }
  const SectionSearchResult search = section_search(
      [&](double i) { return peak_or_inf(readout.peak(i)); },
      search_ceiling(context, options, res.lambda_m), options.current_tol,
      options.max_iterations, exact);
  res.current = search.x;
  res.converged = search.converged;
  res.objective_evaluations = search.evaluations;
  finish_at(readout.solve, res);

  auto& metrics = obs::MetricsRegistry::global();
  metrics.histogram("current_opt.objective_evaluations")
      .record(double(res.objective_evaluations));
  metrics.counter("current_opt.exact_evaluations").increment(search.exact_evaluations);
  TFC_LOG_DEBUG("current_optimum", {"current_a", res.current},
                {"peak_c", thermal::to_celsius(res.peak_tile_temperature)},
                {"evaluations", res.objective_evaluations}, {"converged", res.converged});
  if (!res.converged) {
    TFC_LOG_WARN("current_opt_no_convergence", {"evaluations", res.objective_evaluations},
                 {"max_iterations", options.max_iterations});
  }
  return res;
}

CurrentOptimum optimize_current(const tec::ElectroThermalSystem& system,
                                const CurrentOptimizerOptions& options) {
  const engine::SolveContext context(system);
  return optimize_current(context, options);
}

CurrentOptimum gradient_descent_current(const engine::SolveContext& context,
                                        const CurrentOptimizerOptions& options) {
  constexpr double kInitialStep = 1.0;  // [A]
  constexpr double kBacktrackRatio = 0.5;
  const tec::ElectroThermalSystem& system = context.system();
  CurrentOptimum res;
  res.lambda_m = context.runaway_limit(options.runaway);
  const double hi = search_ceiling(context, options, res.lambda_m);
  const auto objective = [&](double i) {
    ++res.objective_evaluations;
    return peak_or_inf(context.probe_peak(i));
  };

  double i = 0.0;
  double f = objective(i);
  double step = kInitialStep;
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    auto eval = ResponseEvaluator::at(system, i);
    if (!eval) break;  // should not happen inside [0, hi]
    // Subgradient of max_k θ_k at the hottest tile.
    linalg::Vector th = eval->theta();
    linalg::Vector tile = system.model().tile_temperatures(th);
    const std::size_t k_star = linalg::argmax(tile);
    linalg::Vector dth = eval->theta_derivative();
    // Tile temperature is its silicon injection node's.
    const double grad = dth[system.model().silicon_nodes()[k_star]];
    if (std::abs(grad) * std::max(1.0, step) < 1e-9) {
      res.converged = true;
      break;
    }
    // Backtracking line search along -grad, projected onto [0, hi].
    bool moved = false;
    double trial_step = step;
    while (trial_step > 1e-7) {
      double i_new = std::clamp(i - trial_step * grad, 0.0, hi);
      if (i_new != i) {
        const double f_new = objective(i_new);
        if (f_new < f) {
          i = i_new;
          f = f_new;
          step = trial_step * 1.5;  // allow re-growth
          moved = true;
          break;
        }
      }
      trial_step *= kBacktrackRatio;
    }
    if (!moved) {
      res.converged = true;
      break;
    }
    if (it + 1 == options.max_iterations) res.converged = false;
  }
  res.current = i;
  finish_at([&](double x) { return context.solve_probe(x); }, res);
  return res;
}

}  // namespace tfc::core
