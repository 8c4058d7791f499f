#include "tec/runaway.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "linalg/cholesky.h"
#include "linalg/eigen.h"
#include "obs/obs.h"
#include "tec/block_model.h"

namespace tfc::tec {

const char* runaway_method_name(RunawayMethod method) {
  switch (method) {
    case RunawayMethod::kSchur: return "schur";
    case RunawayMethod::kDenseBisect: return "dense";
    case RunawayMethod::kSparse: break;
  }
  return "sparse";
}

std::optional<RunawayMethod> parse_runaway_method(std::string_view name) {
  if (name == "sparse") return RunawayMethod::kSparse;
  if (name == "schur") return RunawayMethod::kSchur;
  if (name == "dense") return RunawayMethod::kDenseBisect;
  return std::nullopt;
}

const char* runaway_method_list() { return "sparse|schur|dense"; }

SchurReduction schur_reduction(const ElectroThermalSystem& system) {
  TFC_SPAN("schur_reduction");
  const linalg::DenseMatrix h = tec_block_greens(system);
  const auto h_chol = linalg::CholeskyFactor::factor(h);
  if (!h_chol) throw std::runtime_error("schur_reduction: G not positive definite");
  SchurReduction red;
  red.tec_nodes = system.model().hot_nodes();
  const auto& cold = system.model().cold_nodes();
  red.tec_nodes.insert(red.tec_nodes.end(), cold.begin(), cold.end());
  const std::size_t m = red.tec_nodes.size();
  // S₀ = H⁻¹, symmetrized against the rounding of the dense inverse.
  const linalg::DenseMatrix inv = h_chol->inverse();
  red.s0 = linalg::DenseMatrix(m, m);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) red.s0(r, c) = 0.5 * (inv(r, c) + inv(c, r));
  }
  red.d_diag = linalg::Vector(m);
  const auto& d_full = system.d_diagonal();
  for (std::size_t k = 0; k < m; ++k) red.d_diag[k] = d_full[red.tec_nodes[k]];
  return red;
}

std::optional<double> runaway_limit(const ElectroThermalSystem& system,
                                    const RunawayOptions& options) {
  return runaway_limit_ex(system, options).lambda_m;
}

RunawayResult runaway_limit_ex(const ElectroThermalSystem& system,
                               const RunawayOptions& options,
                               linalg::ShiftInvertLanczosWorkspace* ws) {
  RunawayResult res;
  res.method_used = options.method;
  if (system.model().hot_nodes().empty()) return res;

  TFC_SPAN("runaway_limit");
  obs::MetricsRegistry::global().counter("runaway.calls").increment();

  const auto report = [&system, &res](std::optional<double> lm) {
    if (lm) {
      obs::MetricsRegistry::global().gauge("runaway.lambda_m").set(*lm);
      TFC_SPAN_ATTR("lambda_m_a", *lm);
    }
    TFC_LOG_DEBUG("runaway_limit", {"method", runaway_method_name(res.method_used)},
                  {"devices", system.model().hot_nodes().size()},
                  {"lambda_m", lm ? *lm : std::numeric_limits<double>::infinity()});
    res.lambda_m = lm;
    return res;
  };

  RunawayMethod method = options.method;
  if (method == RunawayMethod::kSparse &&
      system.device_count() < options.sparse_min_devices) {
    // Tiny TEC set: the reduced block is a handful of rows — the block
    // eigensolve beats any sparse machinery there.
    method = RunawayMethod::kSchur;
    res.method_used = method;
  }

  switch (method) {
    case RunawayMethod::kSparse: {
      linalg::ShiftInvertLanczosOptions lo;
      lo.rel_tol = options.sparse_rel_tol;
      linalg::ShiftInvertLanczosWorkspace local;
      auto lanczos = linalg::ShiftInvertLanczos::smallest_positive(
          system.matrix_g(), system.d_diagonal(), system.cholesky_symbolic(),
          ws != nullptr ? *ws : local, lo);
      if (!lanczos) return report(std::nullopt);
      res.iterations = lanczos->iterations;
      return report(lanczos->eigenvalue);
    }
    case RunawayMethod::kSchur:
      return report(reduced_runaway_limit(system));
    case RunawayMethod::kDenseBisect: {
      linalg::PencilBisectionOptions bis;
      bis.rel_tol = options.rel_tol;
      const auto g = system.matrix_g().to_dense();
      const auto d = linalg::DenseMatrix::diagonal(system.d_diagonal());
      return report(linalg::pencil_smallest_positive_eigenvalue(g, d, bis));
    }
  }
  throw std::logic_error("runaway_limit: unknown method");
}

}  // namespace tfc::tec
