/// \file block_model.h
/// \brief Spectral model of the TEC block: Problem 2's objective and
/// Theorem 1's λ_m on the 2m hot/cold rows alone.
///
/// G − i·D differs from G only on the 2m hot/cold rows of the m devices (U
/// selects them), and the Joule source r·i²/2 sits on exactly those rows. So
/// with Z = G⁻¹·U, H = Uᵀ·Z and z₀ = G⁻¹·rhs(0):
///
///     θ = z₀ + Z·(i²·j_T + i·D_T·θ_T),    j_T = r/2 on every TEC row,
///     (I − i·H·D_T)·θ_T = Uᵀz₀ + i²·H·j_T.
///
/// Factor H = R·Rᵀ and decompose M = Rᵀ·D_T·R = Q·Λ·Qᵀ (Λ = diag μ_k).
/// Substituting θ_T = R·Q·y diagonalizes the block:
///
///     y_k = (a_k + i²·c_k) / (1 − i·μ_k),   a = Qᵀ·R⁻¹·Uᵀz₀,  c = Qᵀ·Rᵀ·j_T,
///     θ_sil = z₀,sil + i²·q + i·P·y,        P = Z_sil·D_T·R·Q, q = Z_sil·j_T.
///
/// G − i·D is positive definite iff its Schur complement on the block,
/// H⁻¹ − i·D_T = R⁻ᵀ·(I − i·M)·R⁻¹, is: iff 1 − i·μ_k > 0 for every k. Hence
/// λ_m = 1 / max μ_k (no finite limit when no μ_k > 0), read off the same
/// eigendecomposition. See docs/THEORY.md.
///
/// Building costs one numeric factorization of G (through the system's
/// shared symbolic analysis), 2m + 1 triangular-solve pairs and O((2m)³)
/// dense work; a probe then costs O(tiles·2m) and touches no sparse matrix.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/vector.h"
#include "tec/electro_thermal.h"

namespace tfc::tec {

/// H = Uᵀ·G⁻¹·U on the TEC rows (hot nodes, then cold nodes), symmetrized:
/// the inverse of the Schur complement of G on that block. Throws
/// std::invalid_argument without TECs, std::runtime_error when G is not
/// positive definite.
linalg::DenseMatrix tec_block_greens(const ElectroThermalSystem& system);

/// Theorem 1's λ_m from the block reduction — eigenvalues only, no silicon
/// rows kept: what RunawayMethod::kSchur runs. Bit-identical to
/// TecBlockModel(system).lambda_m(). nullopt when no μ_k > 0. Same throws as
/// tec_block_greens().
std::optional<double> reduced_runaway_limit(const ElectroThermalSystem& system);

/// The per-deployment probe model. Immutable once built; peak() is const and
/// safe to call concurrently with distinct scratch vectors.
class TecBlockModel {
 public:
  /// Build for \p system. Same throws as tec_block_greens().
  explicit TecBlockModel(const ElectroThermalSystem& system);

  /// 2m: hot plus cold rows.
  std::size_t block_size() const { return mu_.size(); }

  /// Theorem 1's runaway limit, nullopt when no μ_k > 0.
  std::optional<double> lambda_m() const { return lambda_m_; }

  /// Peak silicon tile temperature [K] at current \p i — the Problem 2
  /// objective. nullopt when i < 0 or some 1 − i·μ_k ≤ 0 (i ≥ λ_m, where
  /// G − i·D is not positive definite). \p y is caller scratch, resized to
  /// block_size(): no allocation once warm.
  std::optional<double> peak(double i, linalg::Vector& y) const;

 private:
  std::vector<double> mu_;        ///< eigenvalues of M, ascending
  std::optional<double> lambda_m_;
  linalg::Vector a_, c_;          ///< block coefficients (see the file comment)
  linalg::DenseMatrix p_;         ///< tiles × 2m
  linalg::Vector q_, z0_sil_;     ///< per tile
};

}  // namespace tfc::tec
