#include "tec/block_model.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "linalg/cholesky.h"
#include "linalg/eigen.h"
#include "obs/obs.h"
#include "par/parallel.h"

namespace tfc::tec {

namespace {

/// The TEC-row solves shared by λ_m, H and the probe model: one numeric
/// factorization of G and one column of Z = G⁻¹·U per TEC row, of which only
/// the block rows (H) and, on request, the silicon rows (Z_sil) are kept,
/// plus z₀ = G⁻¹·rhs(0) on the same rows. The factor dies with the solves.
struct BlockSolve {
  std::vector<std::size_t> nodes;  ///< hot then cold
  linalg::Vector d_t;              ///< D on the block rows
  linalg::DenseMatrix h;           ///< 2m × 2m, symmetrized
  linalg::DenseMatrix z_sil;       ///< tiles × 2m (silicon rows requested)
  linalg::Vector z0_t, z0_sil;     ///< Uᵀz₀ and z₀,sil (silicon rows requested)
};

BlockSolve solve_block(const ElectroThermalSystem& system, bool silicon_rows) {
  TFC_SPAN("tec_block_solves");
  const auto& model = system.model();
  if (model.hot_nodes().empty()) {
    throw std::invalid_argument("tec block: system has no TEC devices");
  }
  BlockSolve blk;
  blk.nodes = model.hot_nodes();
  blk.nodes.insert(blk.nodes.end(), model.cold_nodes().begin(), model.cold_nodes().end());
  const std::size_t b = blk.nodes.size();
  blk.d_t = linalg::Vector(b);
  for (std::size_t k = 0; k < b; ++k) blk.d_t[k] = system.d_diagonal()[blk.nodes[k]];

  const auto factor = system.factorize(0.0);
  if (!factor) throw std::runtime_error("tec block: G not positive definite");
  const auto& sil = model.silicon_nodes();
  const std::size_t n = system.node_count();
  blk.h = linalg::DenseMatrix(b, b);  // column j = (G⁻¹·e_{t_j}) on the block rows
  if (silicon_rows) blk.z_sil = linalg::DenseMatrix(sil.size(), b);
  // One column per task; each writes only its own column, so the result is
  // the same for any pool size.
  par::parallel_for(b, [&](std::size_t j) {
    linalg::Vector e(n), x, scratch;
    e[blk.nodes[j]] = 1.0;
    factor->solve_into(e, x, scratch);
    for (std::size_t k = 0; k < b; ++k) blk.h(k, j) = x[blk.nodes[k]];
    if (silicon_rows) {
      for (std::size_t t = 0; t < sil.size(); ++t) blk.z_sil(t, j) = x[sil[t]];
    }
  });
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t c = 0; c < r; ++c) {
      blk.h(r, c) = blk.h(c, r) = 0.5 * (blk.h(r, c) + blk.h(c, r));
    }
  }
  if (silicon_rows) {
    const linalg::Vector z0 = factor->solve(system.rhs(0.0));
    blk.z0_t = linalg::Vector(b);
    for (std::size_t k = 0; k < b; ++k) blk.z0_t[k] = z0[blk.nodes[k]];
    blk.z0_sil = linalg::Vector(sil.size());
    for (std::size_t t = 0; t < sil.size(); ++t) blk.z0_sil[t] = z0[sil[t]];
  }
  return blk;
}

/// H = R·Rᵀ and M = Rᵀ·D_T·R = Q·Λ·Qᵀ.
struct BlockSpectrum {
  std::optional<linalg::CholeskyFactor> chol;  ///< R = chol->l()
  linalg::SymmetricEigen eig;
  std::optional<double> lambda_m;
};

/// Consumes blk.h (released once factored, to keep the peak footprint at
/// R, M and the eigensolver's work matrix).
BlockSpectrum block_spectrum(BlockSolve& blk, bool vectors) {
  TFC_SPAN("tec_block_eigen");
  BlockSpectrum sp;
  sp.chol = linalg::CholeskyFactor::factor(blk.h);
  if (!sp.chol) throw std::runtime_error("tec block: G not positive definite");
  blk.h = linalg::DenseMatrix();
  const linalg::DenseMatrix& r = sp.chol->l();
  const std::size_t b = blk.nodes.size();
  // M = Σ_k d_k·r_k·r_kᵀ over the rows r_k of R (contiguous), lower triangle.
  linalg::DenseMatrix m(b, b);
  for (std::size_t k = 0; k < b; ++k) {
    const double* rk = r.raw().data() + k * b;
    for (std::size_t p = 0; p <= k; ++p) {
      const double dp = blk.d_t[k] * rk[p];
      for (std::size_t q = 0; q <= p; ++q) m(p, q) += dp * rk[q];
    }
  }
  sp.eig = linalg::symmetric_eigen(m, vectors);
  const double mu_max = sp.eig.values.back();
  if (mu_max > 0.0) sp.lambda_m = 1.0 / mu_max;
  return sp;
}

}  // namespace

linalg::DenseMatrix tec_block_greens(const ElectroThermalSystem& system) {
  return solve_block(system, /*silicon_rows=*/false).h;
}

std::optional<double> reduced_runaway_limit(const ElectroThermalSystem& system) {
  BlockSolve blk = solve_block(system, /*silicon_rows=*/false);
  return block_spectrum(blk, /*vectors=*/false).lambda_m;
}

TecBlockModel::TecBlockModel(const ElectroThermalSystem& system) {
  TFC_SPAN("tec_block_model");
  BlockSolve blk = solve_block(system, /*silicon_rows=*/true);
  BlockSpectrum sp = block_spectrum(blk, /*vectors=*/true);
  mu_ = std::move(sp.eig.values);
  lambda_m_ = sp.lambda_m;

  const std::size_t b = blk.nodes.size();
  const std::size_t tiles = blk.z_sil.rows();
  const linalg::DenseMatrix& r = sp.chol->l();
  const linalg::DenseMatrix& q = sp.eig.vectors;
  const double j_t = 0.5 * system.device().resistance;
  z0_sil_ = std::move(blk.z0_sil);

  // w = R⁻¹·Uᵀz₀ (forward substitution) and v = Rᵀ·j_T.
  linalg::Vector w(b), v(b);
  for (std::size_t k = 0; k < b; ++k) {
    double acc = blk.z0_t[k];
    for (std::size_t p = 0; p < k; ++p) acc -= r(k, p) * w[p];
    w[k] = acc / r(k, k);
    for (std::size_t p = 0; p <= k; ++p) v[p] += r(k, p);
  }
  v *= j_t;
  // a = Qᵀ·w, c = Qᵀ·v.
  a_ = linalg::Vector(b);
  c_ = linalg::Vector(b);
  for (std::size_t p = 0; p < b; ++p) {
    for (std::size_t k = 0; k < b; ++k) {
      a_[k] += q(p, k) * w[p];
      c_[k] += q(p, k) * v[p];
    }
  }
  // S = D_T·R·Q; R and Q are dropped before P = Z_sil·S and q = Z_sil·j_T.
  linalg::DenseMatrix s(b, b);
  for (std::size_t k = 0; k < b; ++k) {
    for (std::size_t p = 0; p <= k; ++p) {
      const double rkp = blk.d_t[k] * r(k, p);
      for (std::size_t col = 0; col < b; ++col) s(k, col) += rkp * q(p, col);
    }
  }
  sp = BlockSpectrum();
  p_ = linalg::DenseMatrix(tiles, b);
  q_ = linalg::Vector(tiles);
  for (std::size_t t = 0; t < tiles; ++t) {
    double row_sum = 0.0;
    for (std::size_t k = 0; k < b; ++k) {
      const double z = blk.z_sil(t, k);
      row_sum += z;
      for (std::size_t col = 0; col < b; ++col) p_(t, col) += z * s(k, col);
    }
    q_[t] = row_sum * j_t;
  }
  obs::MetricsRegistry::global().counter("tec.block_model.builds").increment();
}

std::optional<double> TecBlockModel::peak(double i, linalg::Vector& y) const {
  if (i < 0.0) return std::nullopt;
  const std::size_t b = mu_.size();
  y.resize(b);
  const double i2 = i * i;
  for (std::size_t k = 0; k < b; ++k) {
    const double den = 1.0 - i * mu_[k];
    if (!(den > 0.0)) return std::nullopt;  // Theorem 1: i ≥ λ_m
    y[k] = (a_[k] + i2 * c_[k]) / den;
  }
  double peak = -std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < q_.size(); ++t) {
    const double* row = p_.raw().data() + t * b;
    double acc = 0.0;
    for (std::size_t k = 0; k < b; ++k) acc += row[k] * y[k];
    peak = std::max(peak, z0_sil_[t] + i2 * q_[t] + i * acc);
  }
  return peak;
}

}  // namespace tfc::tec
