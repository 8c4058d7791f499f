/// \file eigen.h
/// \brief Symmetric eigenvalue utilities.
///
/// Three consumers: (1) the spectral TEC-block model (tec/block_model.h),
/// which decomposes its 2m×2m reduced matrix with symmetric_eigen(); (2) the
/// paper-faithful λ_m oracle, bisection on positive definiteness of G − λD
/// (Theorem 1); and (3) test oracles (full Jacobi spectra of small
/// matrices).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/vector.h"

namespace tfc::linalg {

/// All eigenvalues (ascending) of a symmetric matrix by the cyclic Jacobi
/// rotation method. Intended for small/medium n (test oracles, Schur blocks).
std::vector<double> jacobi_eigenvalues(const DenseMatrix& a, double tol = 1e-12,
                                       std::size_t max_sweeps = 100);

/// Eigen-decomposition A = Q·diag(values)·Qᵀ of a symmetric matrix.
struct SymmetricEigen {
  /// Eigenvalues, ascending.
  std::vector<double> values;
  /// Orthonormal eigenvectors, column k ↔ values[k]; empty when only the
  /// values were requested.
  DenseMatrix vectors;
};

/// Householder tridiagonalization plus implicit QL with Wilkinson shifts
/// (the EISPACK tred2/tql2 pair), serial and therefore bit-reproducible.
/// O(n³): ≈ 4/3·n³ flops for the values, ≈ 3× that with \p vectors. Only
/// the lower triangle of \p a is read. The eigenvalues are bit-identical
/// with and without \p vectors. Throws std::runtime_error if QL fails to
/// converge (30 sweeps per eigenvalue).
SymmetricEigen symmetric_eigen(const DenseMatrix& a, bool vectors = true);

/// Largest-magnitude eigenvalue by power iteration (symmetric \p a).
struct PowerIterationResult {
  double eigenvalue = 0.0;
  Vector eigenvector;
  std::size_t iterations = 0;
  bool converged = false;
};
PowerIterationResult power_iteration(const DenseMatrix& a, std::size_t max_iterations = 5000,
                                     double tol = 1e-11);

/// Options for the pencil bisection.
struct PencilBisectionOptions {
  double rel_tol = 1e-10;   ///< stop when (hi-lo) <= rel_tol * hi
  double abs_tol = 0.0;
  std::size_t max_iterations = 200;
};

/// 2-norm condition-number estimate of an SPD matrix: λ_max via power
/// iteration on A, λ_min via inverse power iteration (Cholesky solves).
/// Returns nullopt when A is not positive definite. Near the runaway limit
/// the system matrix G − i·D becomes arbitrarily ill-conditioned — this
/// estimator quantifies how close is "too close" for the linear solvers.
std::optional<double> spd_condition_estimate(const DenseMatrix& a,
                                             std::size_t max_iterations = 2000,
                                             double tol = 1e-9);

/// Smallest λ > 0 such that G − λD loses positive definiteness, for G
/// positive definite and symmetric D with at least one positive diagonal
/// direction (Theorem 1's λ_m). Returns nullopt when no finite limit exists
/// (G − λD stays PD for all probed λ, i.e. D has no positive direction).
///
/// Paper-faithful implementation: binary search with a Cholesky PD probe
/// (Section V.C.1). The initial upper bracket grows geometrically. Kept as
/// the oracle of RunawayMethod::kDenseBisect; the production λ_m paths are
/// the spectral TEC-block reduction and sparse Lanczos.
std::optional<double> pencil_smallest_positive_eigenvalue(
    const DenseMatrix& g, const DenseMatrix& d,
    const PencilBisectionOptions& opts = {});

}  // namespace tfc::linalg
