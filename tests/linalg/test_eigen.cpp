#include "linalg/eigen.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/cholesky.h"
#include "linalg/random_stieltjes.h"

namespace tfc::linalg {
namespace {

TEST(JacobiEigen, DiagonalMatrix) {
  auto a = DenseMatrix::diagonal(Vector{3.0, -1.0, 2.0});
  auto ev = jacobi_eigenvalues(a);
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_NEAR(ev[0], -1.0, 1e-12);
  EXPECT_NEAR(ev[1], 2.0, 1e-12);
  EXPECT_NEAR(ev[2], 3.0, 1e-12);
}

TEST(JacobiEigen, Known2x2) {
  DenseMatrix a{{2.0, 1.0}, {1.0, 2.0}};  // eigenvalues 1 and 3
  auto ev = jacobi_eigenvalues(a);
  EXPECT_NEAR(ev[0], 1.0, 1e-12);
  EXPECT_NEAR(ev[1], 3.0, 1e-12);
}

TEST(JacobiEigen, TraceAndDeterminantInvariants) {
  std::mt19937_64 rng(31);
  DenseMatrix a = random_pd_stieltjes(10, rng);
  auto ev = jacobi_eigenvalues(a);
  double trace = 0.0;
  for (std::size_t i = 0; i < 10; ++i) trace += a(i, i);
  double ev_sum = 0.0, ev_logprod = 0.0;
  for (double e : ev) {
    ev_sum += e;
    ev_logprod += std::log(e);
  }
  EXPECT_NEAR(ev_sum, trace, 1e-9 * std::abs(trace));
  EXPECT_NEAR(ev_logprod, CholeskyFactor::factor(a)->log_det(), 1e-8);
}

TEST(JacobiEigen, AllPositiveForPdMatrix) {
  std::mt19937_64 rng(32);
  DenseMatrix a = random_pd_stieltjes(12, rng);
  for (double e : jacobi_eigenvalues(a)) EXPECT_GT(e, 0.0);
}

TEST(PowerIteration, FindsDominantEigenvalue) {
  DenseMatrix a{{2.0, 1.0}, {1.0, 2.0}};
  auto r = power_iteration(a);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.eigenvalue, 3.0, 1e-8);
  // Eigenvector is (1,1)/√2 up to sign.
  EXPECT_NEAR(std::abs(r.eigenvector[0]), std::abs(r.eigenvector[1]), 1e-6);
}

TEST(PowerIteration, ZeroMatrix) {
  DenseMatrix a(3, 3);
  auto r = power_iteration(a);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.eigenvalue, 0.0, 1e-12);
}

TEST(PencilBisection, DiagonalPencilExactAnswer) {
  // G = diag(2, 6), D = diag(1, 2): G - λD loses PD at λ = min(2, 3) = 2.
  auto g = DenseMatrix::diagonal(Vector{2.0, 6.0});
  auto d = DenseMatrix::diagonal(Vector{1.0, 2.0});
  auto lm = pencil_smallest_positive_eigenvalue(g, d);
  ASSERT_TRUE(lm.has_value());
  EXPECT_NEAR(*lm, 2.0, 1e-8);
}

TEST(PencilBisection, IndefiniteDirectionIgnored) {
  // D = diag(1, -5): only the positive direction matters; λm = 2.
  auto g = DenseMatrix::diagonal(Vector{2.0, 6.0});
  auto d = DenseMatrix::diagonal(Vector{1.0, -5.0});
  auto lm = pencil_smallest_positive_eigenvalue(g, d);
  ASSERT_TRUE(lm.has_value());
  EXPECT_NEAR(*lm, 2.0, 1e-8);
}

TEST(PencilBisection, NoPositiveDirectionGivesNullopt) {
  auto g = DenseMatrix::diagonal(Vector{2.0, 6.0});
  auto d = DenseMatrix::diagonal(Vector{-1.0, -2.0});
  EXPECT_FALSE(pencil_smallest_positive_eigenvalue(g, d).has_value());
}

TEST(PencilBisection, ZeroDGivesNullopt) {
  auto g = DenseMatrix::identity(3);
  DenseMatrix d(3, 3);
  EXPECT_FALSE(pencil_smallest_positive_eigenvalue(g, d).has_value());
}

TEST(PencilBisection, RequiresPdG) {
  DenseMatrix g{{1.0, 2.0}, {2.0, 1.0}};
  auto d = DenseMatrix::identity(2);
  EXPECT_THROW(pencil_smallest_positive_eigenvalue(g, d), std::invalid_argument);
}

TEST(PencilBisection, MatchesVariationalDefinition) {
  // λm = min θᵀGθ subject to θᵀDθ = 1 (Theorem 1). For diagonal matrices the
  // minimum is min_i g_i/d_i over positive d_i.
  auto g = DenseMatrix::diagonal(Vector{5.0, 8.0, 3.0, 10.0});
  auto d = DenseMatrix::diagonal(Vector{1.0, 4.0, 0.0, -2.0});
  auto lm = pencil_smallest_positive_eigenvalue(g, d);
  ASSERT_TRUE(lm.has_value());
  EXPECT_NEAR(*lm, 2.0, 1e-8);  // 8/4 = 2 beats 5/1
}

TEST(PencilBisection, GeneralPencilCrossCheckedWithEigenDecomposition) {
  // For SPD G and symmetric D, λm is the reciprocal of the largest eigenvalue
  // of L⁻¹ D L⁻ᵀ where G = L Lᵀ.
  std::mt19937_64 rng(101);
  DenseMatrix g = random_pd_stieltjes(8, rng);
  Vector dd(8);
  dd[1] = 0.4;
  dd[5] = 0.9;
  dd[6] = -0.7;
  auto d = DenseMatrix::diagonal(dd);

  auto lm = pencil_smallest_positive_eigenvalue(g, d);
  ASSERT_TRUE(lm.has_value());

  auto f = CholeskyFactor::factor(g);
  ASSERT_TRUE(f.has_value());
  // Build C = L⁻¹ D L⁻ᵀ via solves: columns of L⁻ᵀ.
  const std::size_t n = 8;
  DenseMatrix c(n, n);
  // First compute X = L⁻¹ D (solve L X = D column-wise), then C = X L⁻ᵀ.
  // Simpler: C_ij = e_iᵀ L⁻¹ D L⁻ᵀ e_j; compute Y = L⁻ᵀ (inverse transpose
  // columns) by solving Lᵀ y = e_j via full solve with G then multiplying by L...
  // Cheapest correct route: C = L⁻¹ D L⁻ᵀ with explicit dense inverse of L.
  DenseMatrix linv(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    // forward solve L x = e_j
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i) {
      double s = (i == j) ? 1.0 : 0.0;
      for (std::size_t k = 0; k < i; ++k) s -= f->l()(i, k) * x[k];
      x[i] = s / f->l()(i, i);
    }
    for (std::size_t i = 0; i < n; ++i) linv(i, j) = x[i];
  }
  c = linv * d * linv.transposed();
  auto ev = jacobi_eigenvalues(c);
  const double mu_max = ev.back();
  ASSERT_GT(mu_max, 0.0);
  EXPECT_NEAR(*lm, 1.0 / mu_max, 1e-6 / mu_max);
}

/// Random symmetric matrix with entries in [-1, 1].
DenseMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) a(i, j) = a(j, i) = u(rng);
  }
  return a;
}

class SymmetricEigenSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymmetricEigenSizes, ValuesMatchJacobiOracle) {
  const std::size_t n = GetParam();
  const DenseMatrix a = random_symmetric(n, 100 + n);
  const auto eig = symmetric_eigen(a);
  const auto oracle = jacobi_eigenvalues(a, 1e-14);
  ASSERT_EQ(eig.values.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(eig.values[k], oracle[k], 1e-11 * std::max(1.0, std::abs(oracle[k])));
    if (k > 0) {
      EXPECT_LE(eig.values[k - 1], eig.values[k]);  // ascending
    }
  }
}

TEST_P(SymmetricEigenSizes, VectorsAreOrthonormalAndDiagonalize) {
  const std::size_t n = GetParam();
  const DenseMatrix a = random_symmetric(n, 200 + n);
  const auto eig = symmetric_eigen(a);
  const DenseMatrix& q = eig.vectors;
  ASSERT_EQ(q.rows(), n);
  ASSERT_EQ(q.cols(), n);
  const DenseMatrix qtq = q.transposed() * q;
  EXPECT_LT(qtq.max_abs_diff(DenseMatrix::identity(n)), 1e-12 * double(n));
  const DenseMatrix aq = a * q;
  double worst = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < n; ++k) {
      worst = std::max(worst, std::abs(aq(r, k) - q(r, k) * eig.values[k]));
    }
  }
  EXPECT_LT(worst, 1e-12 * double(n));
}

TEST_P(SymmetricEigenSizes, ValuesOnlyAreBitIdenticalToFullDecomposition) {
  const std::size_t n = GetParam();
  const DenseMatrix a = random_symmetric(n, 300 + n);
  const auto full = symmetric_eigen(a, /*vectors=*/true);
  const auto values = symmetric_eigen(a, /*vectors=*/false);
  EXPECT_EQ(values.values, full.values);
  EXPECT_EQ(values.vectors.rows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetricEigenSizes,
                         ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{5},
                                           std::size_t{24}, std::size_t{80}));

TEST(SymmetricEigen, RepeatedAndZeroEigenvalues) {
  // diag(2, 0, 2, -1) rotated by a fixed orthogonal matrix keeps its
  // repeated and zero eigenvalues.
  const DenseMatrix d = DenseMatrix::diagonal(Vector{2.0, 0.0, 2.0, -1.0});
  const auto q = symmetric_eigen(random_symmetric(4, 7)).vectors;
  const DenseMatrix a = q * d * q.transposed();
  const auto eig = symmetric_eigen(a);
  const double want[] = {-1.0, 0.0, 2.0, 2.0};
  for (std::size_t k = 0; k < 4; ++k) EXPECT_NEAR(eig.values[k], want[k], 1e-13);
}

TEST(SymmetricEigen, AgreesWithJacobiOnStieltjesMatrix) {
  std::mt19937_64 rng(41);
  const DenseMatrix a = random_pd_stieltjes(30, rng);
  const auto eig = symmetric_eigen(a);
  const auto oracle = jacobi_eigenvalues(a, 1e-14);
  for (std::size_t k = 0; k < 30; ++k) {
    EXPECT_NEAR(eig.values[k], oracle[k], 1e-11 * std::abs(oracle.back()));
  }
}

TEST(SymmetricEigen, EmptyAndNonSquare) {
  EXPECT_TRUE(symmetric_eigen(DenseMatrix(0, 0)).values.empty());
  EXPECT_THROW(symmetric_eigen(DenseMatrix(2, 3)), std::invalid_argument);
}

}  // namespace
}  // namespace tfc::linalg
