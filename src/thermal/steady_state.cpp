#include "thermal/steady_state.h"

#include <stdexcept>

#include "linalg/cg.h"
#include "linalg/sparse_cholesky.h"
#include "obs/trace.h"

namespace tfc::thermal {

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kCholesky: return "cholesky";
    case Backend::kCg: return "cg";
  }
  return "?";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "cholesky") return Backend::kCholesky;
  if (name == "cg") return Backend::kCg;
  return std::nullopt;
}

const char* backend_list() { return "cholesky|cg"; }

linalg::Vector solve_steady_state(const linalg::SparseMatrix& g, const linalg::Vector& rhs,
                                  const SteadyStateOptions& options) {
  TFC_SPAN("steady_state_solve");
  switch (options.backend) {
    case Backend::kCholesky: {
      auto f = linalg::SparseCholeskyFactor::factor(g);
      if (!f) throw std::runtime_error("solve_steady_state: matrix not positive definite");
      return f->solve(rhs);
    }
    case Backend::kCg: {
      linalg::CgOptions cg;
      cg.rel_tol = options.cg_rel_tol;
      cg.max_iterations = options.cg_max_iterations;
      auto res = linalg::conjugate_gradient(g, rhs, linalg::jacobi_preconditioner(g), cg);
      if (!res.converged) {
        throw std::runtime_error("solve_steady_state: CG failed to converge");
      }
      return std::move(res.x);
    }
  }
  throw std::logic_error("solve_steady_state: unknown backend");
}

linalg::Vector solve_steady_state(const PackageModel& model,
                                  const SteadyStateOptions& options) {
  const auto& net = model.network();
  return solve_steady_state(net.conductance_matrix(), net.rhs(model.geometry().ambient),
                            options);
}

}  // namespace tfc::thermal
