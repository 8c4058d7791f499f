/// \file steady_state.h
/// \brief Steady-state solution of the thermal network: G·θ = p (Eq. 4 with
/// i = 0, i.e. no Peltier coupling; the TEC-coupled system is solved by
/// core::ThermalSystem).
#pragma once

#include <optional>
#include <string_view>

#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"
#include "thermal/package_model.h"

namespace tfc::thermal {

/// Linear backend for an SPD solve: steady-state solves here and the solve
/// engine's point solves (engine::SolveContext) select from the same set.
enum class Backend {
  kCholesky,  ///< sparse Cholesky (direct, default)
  kCg,        ///< Jacobi-preconditioned conjugate gradient
};

/// Stable lower-case name ("cholesky", "cg") for CLI/metrics/JSON.
const char* backend_name(Backend backend);

/// Parse a backend_name() string; nullopt for anything else.
std::optional<Backend> parse_backend(std::string_view name);

/// "cholesky|cg" — for CLI help and error messages.
const char* backend_list();

/// Options for steady-state solving.
struct SteadyStateOptions {
  Backend backend = Backend::kCholesky;
  /// CG-specific knobs (ignored by direct back ends).
  double cg_rel_tol = 1e-12;
  std::size_t cg_max_iterations = 50000;
};

/// Solve G·θ = rhs for an assembled network matrix. Throws std::runtime_error
/// if the matrix is not SPD or the iteration fails.
linalg::Vector solve_steady_state(const linalg::SparseMatrix& g, const linalg::Vector& rhs,
                                  const SteadyStateOptions& options = {});

/// Convenience: assemble and solve a package model at its current power
/// settings. Returns full node temperatures [K].
linalg::Vector solve_steady_state(const PackageModel& model,
                                  const SteadyStateOptions& options = {});

}  // namespace tfc::thermal
