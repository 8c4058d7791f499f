/// \file current_optimizer.h
/// \brief Problem 2 — peak tile temperature minimization over the supply
/// current (Section V.C):  minimize max_{k∈SIL} θ_k(i)  s.t.  (G−iD)θ = p(i),
/// 0 ≤ i < λ_m.
///
/// Under Conjecture 1 the objective is convex on [0, λ_m) (Theorem 3 + the
/// Theorem 4 certificate), so any bracketing search finds the global
/// optimum. section_search is the library's one 1-D current search: Problem 2,
/// every coordinate of the multi-pin descent and the worst-scenario current
/// of the multi-scenario design all run it. The paper's gradient descent with
/// backtracking is kept as a reference (gradient_descent_current) that the
/// tests compare against.
#pragma once

#include <functional>
#include <optional>

#include "engine/solve_context.h"
#include "tec/electro_thermal.h"
#include "tec/runaway.h"

namespace tfc::core {

struct CurrentOptimizerOptions {
  /// Search interval is [0, runaway_fraction · λ_m].
  double runaway_fraction = 0.999;
  /// Absolute tolerance on the current [A].
  double current_tol = 1e-4;
  /// Objective-evaluation budget of the search.
  std::size_t max_iterations = 200;
  /// λ_m computation for the *design* pipeline. Pinned to the TEC-block
  /// eigensolve, which SolveContext reads off the block model its probes
  /// already use: the design JSON embeds lambda_m_a, and pinning keeps
  /// `design --json` byte-identical no matter which runaway method the
  /// engine/service default to. The sparse Lanczos agrees to 1e-8 relative
  /// — but not to the last bit.
  tec::RunawayOptions runaway{tec::RunawayMethod::kSchur};
};

/// Result of the current setting subroutine.
struct CurrentOptimum {
  double current = 0.0;                 ///< I_opt [A]
  double peak_tile_temperature = 0.0;   ///< minimized objective [K]
  double tec_input_power = 0.0;         ///< P_TEC at I_opt [W]
  std::optional<double> lambda_m;       ///< runaway limit (nullopt: none)
  std::size_t objective_evaluations = 0;
  bool converged = false;
  tec::OperatingPoint operating_point;  ///< full solution at I_opt
};

/// Outcome of section_search.
struct SectionSearchResult {
  double x = 0.0;  ///< midpoint of the final bracket
  std::size_t evaluations = 0;
  /// Near-tie re-evaluations by the exact objective (0 without one).
  std::size_t exact_evaluations = 0;
  bool converged = false;  ///< final bracket within the tolerance
};

/// Iterated K-point section search (K = 8) for the minimizer of
/// \p objective on [0, hi]: every round evaluates K equispaced interior
/// probes concurrently (tfc::par) and shrinks the bracket to the best
/// probe's neighbours, ≈ 2/(K+1) of its width. Stops once the bracket is
/// within \p tol or another round would exceed \p max_evaluations.
/// \p objective must be pure and safe to call concurrently; +∞ marks an
/// infeasible point (past λ_m). The probes depend only on the bracket, never
/// on the pool size, so the result is bit-identical for any thread count.
/// Exact for unimodal objectives.
///
/// When \p exact is given, \p objective is a surrogate of it that agrees to
/// kSurrogateRelTol relative: every round re-evaluates, with \p exact, the
/// probes whose surrogate lies within twice that band of the round's
/// minimum (serially, on the calling thread), and picks the best among
/// those. The search then takes exactly the steps it would take on \p exact
/// alone, at the cost of the near-ties.
SectionSearchResult section_search(const std::function<double(double)>& objective,
                                   double hi, double tol, std::size_t max_evaluations,
                                   const std::function<double(double)>& exact = nullptr);

/// Relative agreement section_search assumes between a surrogate objective
/// and its exact reference (the block-model probe against the sparse
/// refactorization agrees to ~1e-11 on every Table-I and example
/// deployment; the tests hold it to this bound).
inline constexpr double kSurrogateRelTol = 1e-9;

/// What the current search reads on a fixed deployment at current i: `peak`
/// is the objective it minimizes (nullopt past λ_m); `solve` is the
/// read-back at the optimum, whose tile temperatures feed GreedyDeploy's
/// over-limit test; `exact_peak`, when set, is the reference `peak` is a
/// surrogate of (see section_search). All must be pure and safe to call
/// concurrently.
struct PeakReadout {
  std::function<std::optional<double>(double)> peak;
  std::function<std::optional<tec::OperatingPoint>(double)> solve;
  std::function<std::optional<double>(double)> exact_peak;
};

/// The installed power map of \p context: the zero-allocation probe_peak
/// objective, its refactor_peak reference and the solve_probe read-back —
/// the search steps and the result are those of the sparse refactorization,
/// at block-model probe cost. \p context must outlive the readout.
PeakReadout probe_readout(const engine::SolveContext& context);

/// Solve Problem 2 for a fixed deployment. For a system without TECs the
/// optimum is trivially i = 0. Throws std::runtime_error if the passive
/// system (i = 0) cannot be solved. Every objective evaluation is a
/// zero-allocation probe through the context's workspace pool, and λ_m is
/// taken from the context's cache.
CurrentOptimum optimize_current(const engine::SolveContext& context,
                                const CurrentOptimizerOptions& options = {});

/// As above, minimizing \p readout's peak (the search interval still comes
/// from the context's λ_m) — how the multi-scenario design minimizes the
/// worst peak over its scenario set.
CurrentOptimum optimize_current(const engine::SolveContext& context,
                                const CurrentOptimizerOptions& options,
                                const PeakReadout& readout);

/// Convenience overload: wraps \p system in a single-use engine::SolveContext
/// (copying it; the symbolic-analysis cache is shared, not recomputed).
CurrentOptimum optimize_current(const tec::ElectroThermalSystem& system,
                                const CurrentOptimizerOptions& options = {});

/// The paper's gradient descent with backtracking on the same interval,
/// using the analytic subgradient dθ_{k*}/di at the hottest tile. A
/// reference for the tests; no production path runs it.
CurrentOptimum gradient_descent_current(const engine::SolveContext& context,
                                        const CurrentOptimizerOptions& options = {});

}  // namespace tfc::core
