#include "core/multi_scenario.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "engine/solve_context.h"

namespace tfc::core {

namespace {

/// Solve every scenario at current \p i on the context's deployment: one
/// factorization, then one RHS and one solve per scenario, all in a leased
/// workspace. Calls visit(s, θ_s) in scenario order; false past λ_m.
template <class Visit>
bool solve_scenarios(const engine::SolveContext& context,
                     const std::vector<linalg::Vector>& scenarios, double i,
                     Visit&& visit) {
  const auto& system = context.system();
  engine::SolveContext::WorkspaceLease ws(context);
  if (!system.factorize_into(i, *ws)) return false;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    system.rhs_into(i, scenarios[s], ws->rhs);
    ws->factor.solve_into(ws->rhs, ws->theta, ws->solve_scratch);
    visit(s, ws->theta);
  }
  return true;
}

/// Per-scenario peak tile temperatures at current \p i; nullopt past λ_m.
std::optional<std::vector<double>> scenario_peaks(
    const engine::SolveContext& context, const std::vector<linalg::Vector>& scenarios,
    double i) {
  const auto& tile_nodes = context.system().model().silicon_nodes();
  std::vector<double> peaks(scenarios.size(), -std::numeric_limits<double>::infinity());
  if (!solve_scenarios(context, scenarios, i,
                       [&](std::size_t s, const linalg::Vector& theta) {
                         for (std::size_t node : tile_nodes) {
                           peaks[s] = std::max(peaks[s], theta[node]);
                         }
                       })) {
    return std::nullopt;
  }
  return peaks;
}

/// The scenario set as the greedy loop's readout: the peak is the worst
/// scenario's, the read-back is the per-tile maximum over scenarios. A tile
/// is over the limit in some scenario iff its maximum is, so the loop's
/// over-limit set is the union over scenarios.
PeakReadout worst_scenario_readout(const engine::SolveContext& context,
                                   const std::vector<linalg::Vector>& scenarios) {
  PeakReadout readout;
  readout.peak = [&context, &scenarios](double i) -> std::optional<double> {
    auto peaks = scenario_peaks(context, scenarios, i);
    if (!peaks) return std::nullopt;
    return *std::max_element(peaks->begin(), peaks->end());
  };
  readout.solve = [&context, &scenarios](double i) -> std::optional<tec::OperatingPoint> {
    const auto& system = context.system();
    const auto& tile_nodes = system.model().silicon_nodes();
    constexpr double kNone = -std::numeric_limits<double>::infinity();
    tec::OperatingPoint op;
    op.current = i;
    op.tile_temperatures = linalg::Vector(tile_nodes.size(), kNone);
    op.tec_input_power = kNone;
    if (!solve_scenarios(context, scenarios, i,
                         [&](std::size_t, const linalg::Vector& theta) {
                           for (std::size_t t = 0; t < tile_nodes.size(); ++t) {
                             op.tile_temperatures[t] =
                                 std::max(op.tile_temperatures[t], theta[tile_nodes[t]]);
                           }
                           op.tec_input_power = std::max(op.tec_input_power,
                                                         system.tec_input_power(i, theta));
                         })) {
      return std::nullopt;
    }
    op.peak_tile_temperature = linalg::max_entry(op.tile_temperatures);
    return op;
  };
  return readout;
}

}  // namespace

MultiScenarioResult greedy_deploy_multi(const thermal::PackageGeometry& geometry,
                                        const std::vector<linalg::Vector>& scenarios,
                                        const tec::TecDeviceParams& device,
                                        const GreedyDeployOptions& options) {
  if (scenarios.empty()) {
    throw std::invalid_argument("greedy_deploy_multi: no scenarios");
  }
  for (const auto& s : scenarios) {
    if (s.size() != geometry.tile_count()) {
      throw std::invalid_argument("greedy_deploy_multi: scenario size mismatch");
    }
  }
  device.validate();

  // One context spans the whole loop, as in greedy_deploy. Scenario powers
  // ride in the per-solve RHS, so the context's installed power map
  // (scenario 0) is never consulted.
  engine::SolveContext context(geometry, TileMask(), scenarios[0], device,
                               options.engine);
  const GreedyDeployResult greedy =
      greedy_deploy_impl(context, context.spec()->tec_allowed_tiles(), options,
                         worst_scenario_readout(context, scenarios));

  MultiScenarioResult result;
  result.success = greedy.success;
  result.deployment = greedy.deployment;
  result.current = greedy.current;
  result.peak_tile_temperature = greedy.peak_tile_temperature;
  result.peak_without_tec = greedy.peak_without_tec;
  result.lambda_m = greedy.lambda_m;
  result.iterations = greedy.iterations.size();
  // The context holds the final deployment: read each scenario's peak at
  // the final current.
  auto peaks = scenario_peaks(context, scenarios, result.current);
  if (!peaks) throw std::runtime_error("greedy_deploy_multi: optimum not solvable");
  result.scenario_peaks = std::move(*peaks);
  return result;
}

}  // namespace tfc::core
