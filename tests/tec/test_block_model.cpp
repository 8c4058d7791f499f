/// tfc::tec::TecBlockModel — the spectral reduction of G − i·D onto the 2m
/// hot/cold rows: its λ_m against the paper-faithful dense bisection, the
/// Theorem-1 split at that λ_m, and its peak against the sparse
/// refactorization it stands in for.
#include "tec/block_model.h"

#include <gtest/gtest.h>

#include "linalg/cholesky.h"
#include "tec/runaway.h"

namespace tfc::tec {
namespace {

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = 4;
  g.tile_cols = 4;
  g.die_width = 2e-3;
  g.die_height = 2e-3;
  return g;
}

ElectroThermalSystem make_system(std::size_t num_tecs, std::size_t stages = 1) {
  TileMask dep(4, 4);
  const Tile sites[] = {{1, 1}, {1, 2}, {2, 1}, {2, 2}, {0, 3}};
  for (std::size_t k = 0; k < num_tecs; ++k) dep.set(sites[k]);
  linalg::Vector p(16, 0.08);
  p[5] = 0.5;
  p[10] = 0.4;
  return ElectroThermalSystem::assemble(
      small_geom(), dep, p, TecDeviceParams::chowdhury_superlattice(), stages);
}

/// Peak tile temperature by a plain sparse solve (nullopt past λ_m).
std::optional<double> sparse_peak(const ElectroThermalSystem& sys, double i) {
  auto op = sys.solve(i);
  if (!op) return std::nullopt;
  return op->peak_tile_temperature;
}

/// (devices, stages) per instance.
using Deployment = std::pair<std::size_t, std::size_t>;

class BlockModelSystems : public ::testing::TestWithParam<Deployment> {
 protected:
  ElectroThermalSystem system() const {
    return make_system(GetParam().first, GetParam().second);
  }
};

TEST_P(BlockModelSystems, LambdaMatchesDenseBisectionOracle) {
  const auto sys = system();
  RunawayOptions dense;
  dense.method = RunawayMethod::kDenseBisect;
  dense.rel_tol = 1e-13;
  const auto oracle = runaway_limit(sys, dense);
  const TecBlockModel model(sys);
  ASSERT_TRUE(oracle.has_value());
  ASSERT_TRUE(model.lambda_m().has_value());
  EXPECT_NEAR(*model.lambda_m(), *oracle, 1e-9 * *oracle);
  EXPECT_EQ(model.block_size(), 2 * sys.model().hot_nodes().size());
}

TEST_P(BlockModelSystems, SchurMethodIsTheModelsLambdaBitwise) {
  const auto sys = system();
  const auto schur = runaway_limit(sys, RunawayOptions{RunawayMethod::kSchur});
  ASSERT_TRUE(schur.has_value());
  EXPECT_EQ(*schur, *TecBlockModel(sys).lambda_m());
  EXPECT_EQ(*schur, *reduced_runaway_limit(sys));
}

TEST_P(BlockModelSystems, Theorem1PositiveDefinitenessSplitsAtReducedLambda) {
  const auto sys = system();
  const double lm = *TecBlockModel(sys).lambda_m();
  EXPECT_TRUE(
      linalg::is_positive_definite(sys.system_matrix(lm * (1.0 - 1e-6)).to_dense()));
  EXPECT_FALSE(
      linalg::is_positive_definite(sys.system_matrix(lm * (1.0 + 1e-6)).to_dense()));
}

TEST_P(BlockModelSystems, PeakMatchesSparseRefactorizationBelowLambda) {
  const auto sys = system();
  const TecBlockModel model(sys);
  const double lm = *model.lambda_m();
  linalg::Vector y;
  for (int k = 0; k <= 40; ++k) {
    const double i = 0.999 * lm * double(k) / 40.0;
    const auto want = sparse_peak(sys, i);
    const auto got = model.peak(i, y);
    ASSERT_TRUE(want.has_value()) << "i=" << i;
    ASSERT_TRUE(got.has_value()) << "i=" << i;
    EXPECT_NEAR(*got, *want, 1e-9 * *want) << "i=" << i;
  }
}

TEST_P(BlockModelSystems, ProbeAboveLambdaIsInfeasible) {
  const auto sys = system();
  const TecBlockModel model(sys);
  const double lm = *model.lambda_m();
  linalg::Vector y;
  EXPECT_FALSE(model.peak(1.001 * lm, y).has_value());
  EXPECT_FALSE(sparse_peak(sys, 1.001 * lm).has_value());
  EXPECT_FALSE(model.peak(3.0 * lm, y).has_value());
  EXPECT_FALSE(model.peak(-1.0, y).has_value());
  EXPECT_TRUE(model.peak(0.999 * lm, y).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, BlockModelSystems,
    ::testing::Values(Deployment{1, 1}, Deployment{3, 1}, Deployment{5, 1},
                      Deployment{2, 2}));

TEST(TecBlockGreens, EqualsTheDenseInverseOnTheTecRows) {
  const auto sys = make_system(3);
  const auto h = tec_block_greens(sys);
  const auto g_inv = linalg::CholeskyFactor::factor(sys.matrix_g().to_dense())->inverse();
  std::vector<std::size_t> nodes = sys.model().hot_nodes();
  const auto& cold = sys.model().cold_nodes();
  nodes.insert(nodes.end(), cold.begin(), cold.end());
  ASSERT_EQ(h.rows(), nodes.size());
  for (std::size_t r = 0; r < nodes.size(); ++r) {
    for (std::size_t c = 0; c < nodes.size(); ++c) {
      EXPECT_NEAR(h(r, c), g_inv(nodes[r], nodes[c]), 1e-9 * g_inv(nodes[r], nodes[r]));
    }
  }
}

TEST(TecBlockModel, ThrowsWithoutTecs) {
  const auto sys = ElectroThermalSystem::assemble(
      small_geom(), TileMask(), linalg::Vector(16, 0.1),
      TecDeviceParams::chowdhury_superlattice());
  EXPECT_THROW(TecBlockModel{sys}, std::invalid_argument);
  EXPECT_THROW(reduced_runaway_limit(sys), std::invalid_argument);
}

}  // namespace
}  // namespace tfc::tec
