#include "linalg/sparse_cholesky.h"

#include <gtest/gtest.h>

#include <random>

#include "linalg/cholesky.h"
#include "linalg/ordering.h"
#include "linalg/random_stieltjes.h"

namespace tfc::linalg {
namespace {

SparseMatrix grid_laplacian(std::size_t rows, std::size_t cols, double ground) {
  const std::size_t n = rows * cols;
  auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  TripletList t(n, n);
  std::vector<double> diag(n, ground);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        t.add_symmetric(id(r, c), id(r, c + 1), -1.0);
        diag[id(r, c)] += 1.0;
        diag[id(r, c + 1)] += 1.0;
      }
      if (r + 1 < rows) {
        t.add_symmetric(id(r, c), id(r + 1, c), -1.0);
        diag[id(r, c)] += 1.0;
        diag[id(r + 1, c)] += 1.0;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, diag[i]);
  return SparseMatrix::from_triplets(t);
}

TEST(SparseCholesky, SolvesGridSystem) {
  auto a = grid_laplacian(8, 9, 0.5);
  auto f = SparseCholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  Vector b(a.rows());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = double(i % 7);
  Vector x = f->solve(b);
  EXPECT_LT(norm2(a * x - b), 1e-9 * norm2(b));
}

TEST(SparseCholesky, MatchesDenseCholesky) {
  std::mt19937_64 rng(17);
  DenseMatrix d = random_pd_stieltjes(25, rng);
  auto a = SparseMatrix::from_dense(d);
  auto fs = SparseCholeskyFactor::factor(a);
  auto fd = CholeskyFactor::factor(d);
  ASSERT_TRUE(fs && fd);
  Vector b(25);
  for (std::size_t i = 0; i < 25; ++i) b[i] = std::cos(double(i));
  EXPECT_TRUE(approx_equal(fs->solve(b), fd->solve(b), 1e-9));
  EXPECT_NEAR(fs->log_det(), fd->log_det(), 1e-8);
}

TEST(SparseCholesky, AllOrderingsAgree) {
  auto a = grid_laplacian(5, 5, 1.0);
  auto f_rcm = SparseCholeskyFactor::factor(a, FillOrdering::kRcm);
  auto f_nat = SparseCholeskyFactor::factor(a, FillOrdering::kNatural);
  auto f_md = SparseCholeskyFactor::factor(a, FillOrdering::kMinDegree);
  ASSERT_TRUE(f_rcm && f_nat && f_md);
  Vector b(25, 1.0);
  EXPECT_TRUE(approx_equal(f_rcm->solve(b), f_nat->solve(b), 1e-10));
  EXPECT_TRUE(approx_equal(f_rcm->solve(b), f_md->solve(b), 1e-10));
}

TEST(SparseCholesky, BoolOverloadStillWorks) {
  auto a = grid_laplacian(4, 4, 1.0);
  auto f = SparseCholeskyFactor::factor(a, FillOrdering::kNatural);
  ASSERT_TRUE(f.has_value());
  Vector b(16, 1.0);
  EXPECT_LT(norm2(a * f->solve(b) - b), 1e-9 * norm2(b));
}

TEST(SparseCholesky, MinDegreeReducesFillOnGrid) {
  // On a 2-D grid, minimum degree produces (much) less fill than the natural
  // order and at least rivals RCM.
  auto a = grid_laplacian(18, 18, 0.5);
  auto f_nat = SparseCholeskyFactor::factor(a, FillOrdering::kNatural);
  auto f_md = SparseCholeskyFactor::factor(a, FillOrdering::kMinDegree);
  ASSERT_TRUE(f_nat && f_md);
  EXPECT_LT(f_md->factor_nnz(), f_nat->factor_nnz());
}

TEST(Ordering, MinimumDegreeIsValidPermutation) {
  auto a = grid_laplacian(7, 9, 1.0);
  auto perm = minimum_degree(a);
  std::vector<bool> seen(a.rows(), false);
  for (auto p : perm) {
    ASSERT_LT(p, a.rows());
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(Ordering, MinimumDegreeStartsWithLowestDegreeNode) {
  // On a star graph the leaves (degree 1) must be eliminated before the hub.
  TripletList t(5, 5);
  for (std::size_t leaf = 1; leaf < 5; ++leaf) t.add_symmetric(0, leaf, -1.0);
  for (std::size_t i = 0; i < 5; ++i) t.add(i, i, 5.0);
  auto a = SparseMatrix::from_triplets(t);
  auto perm = minimum_degree(a);
  // The hub (degree 4) cannot be eliminated before at least three leaves
  // have gone (until then every leaf has strictly smaller degree).
  EXPECT_GE(perm[0], 3u);
  // Star elimination in leaf-first order creates zero fill.
  auto f = SparseCholeskyFactor::factor(a, FillOrdering::kMinDegree);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->factor_nnz(), 5u + 4u);  // diagonal + one entry per leaf
}

TEST(SparseCholesky, DetectsIndefinite) {
  DenseMatrix d{{1.0, 2.0}, {2.0, 1.0}};
  auto a = SparseMatrix::from_dense(d);
  EXPECT_FALSE(SparseCholeskyFactor::factor(a).has_value());
  EXPECT_FALSE(is_positive_definite(a));
}

TEST(SparseCholesky, DetectsSingular) {
  // Pure Neumann Laplacian (no grounding) is singular.
  auto a = grid_laplacian(4, 4, 0.0);
  EXPECT_FALSE(SparseCholeskyFactor::factor(a).has_value());
}

TEST(SparseCholesky, InverseColumnMatchesDense) {
  std::mt19937_64 rng(23);
  DenseMatrix d = random_pd_stieltjes(12, rng);
  auto a = SparseMatrix::from_dense(d);
  auto fs = SparseCholeskyFactor::factor(a);
  ASSERT_TRUE(fs.has_value());
  DenseMatrix inv = CholeskyFactor::factor(d)->inverse();
  for (std::size_t j : {std::size_t{0}, std::size_t{5}, std::size_t{11}}) {
    EXPECT_TRUE(approx_equal(fs->inverse_column(j), inv.col(j), 1e-9));
  }
}

TEST(SparseCholesky, FactorNnzIncludesDiagonal) {
  auto a = SparseMatrix::identity(6);
  auto f = SparseCholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->factor_nnz(), 6u);
}

TEST(Ordering, RcmReducesBandwidthOnShuffledGrid) {
  auto a = grid_laplacian(10, 10, 1.0);
  // Shuffle to destroy natural ordering.
  std::vector<std::size_t> shuffle_perm = identity_permutation(100);
  std::mt19937_64 rng(5);
  std::shuffle(shuffle_perm.begin(), shuffle_perm.end(), rng);
  auto shuffled = permute_symmetric(a, shuffle_perm);
  auto rcm = reverse_cuthill_mckee(shuffled);
  auto reordered = permute_symmetric(shuffled, rcm);
  EXPECT_LT(bandwidth(reordered), bandwidth(shuffled));
  EXPECT_LE(bandwidth(reordered), 20u);  // near-optimal for a 10x10 grid
}

TEST(Ordering, PermuteSymmetricPreservesValues) {
  auto a = grid_laplacian(3, 3, 1.0);
  auto perm = reverse_cuthill_mckee(a);
  auto b = permute_symmetric(a, perm);
  // Spectra are permutation invariant: check via quadratic forms.
  Vector x(9);
  for (std::size_t i = 0; i < 9; ++i) x[i] = double(i);
  Vector px = permute(x, perm);
  EXPECT_NEAR(dot(x, a * x), dot(px, b * px), 1e-10);
}

TEST(Ordering, InvertPermutationRoundTrips) {
  std::vector<std::size_t> p{2, 0, 3, 1};
  auto inv = invert_permutation(p);
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(inv[p[i]], i);
  Vector v{1.0, 2.0, 3.0, 4.0};
  EXPECT_TRUE(approx_equal(permute(permute(v, p), inv), v, 0.0));
}

TEST(Ordering, HandlesDisconnectedGraph) {
  // Two disconnected 2-node components.
  TripletList t(4, 4);
  t.add_symmetric(0, 1, -1.0);
  t.add_symmetric(2, 3, -1.0);
  for (std::size_t i = 0; i < 4; ++i) t.add(i, i, 2.0);
  auto a = SparseMatrix::from_triplets(t);
  auto perm = reverse_cuthill_mckee(a);
  // Must be a valid permutation.
  std::vector<bool> seen(4, false);
  for (auto p : perm) {
    ASSERT_LT(p, 4u);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
  // And factorization must still work.
  EXPECT_TRUE(SparseCholeskyFactor::factor(a).has_value());
}

class SparseCholeskyGridSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SparseCholeskyGridSweep, ResidualSmall) {
  const auto [r, c] = GetParam();
  auto a = grid_laplacian(r, c, 0.25);
  auto f = SparseCholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  Vector b(a.rows(), 1.0);
  Vector x = f->solve(b);
  EXPECT_LT(norm2(a * x - b), 1e-9 * norm2(b));
}

INSTANTIATE_TEST_SUITE_P(Grids, SparseCholeskyGridSweep,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                                           std::pair<std::size_t, std::size_t>{1, 20},
                                           std::pair<std::size_t, std::size_t>{12, 12},
                                           std::pair<std::size_t, std::size_t>{20, 30}));

}  // namespace
}  // namespace tfc::linalg
