#include "core/current_optimizer.h"

#include <gtest/gtest.h>

#include <limits>

namespace tfc::core {
namespace {

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 6;
  g.die_width = g.die_height = 3e-3;
  return g;
}

linalg::Vector hot_map() {
  linalg::Vector p(36, 0.10);
  p[2 * 6 + 2] = 0.65;
  p[2 * 6 + 3] = 0.65;
  p[3 * 6 + 2] = 0.55;
  return p;
}

tec::ElectroThermalSystem deployed_system() {
  TileMask dep(6, 6);
  dep.set(2, 2);
  dep.set(2, 3);
  dep.set(3, 2);
  return tec::ElectroThermalSystem::assemble(small_geom(), dep, hot_map(),
                                             tec::TecDeviceParams::chowdhury_superlattice());
}

TEST(CurrentOptimizer, ImprovesOverZeroCurrent) {
  auto sys = deployed_system();
  auto opt = optimize_current(sys);
  EXPECT_TRUE(opt.converged);
  const double peak0 = sys.solve(0.0)->peak_tile_temperature;
  EXPECT_LT(opt.peak_tile_temperature, peak0 - 1.0);  // > 1 K of cooling
  EXPECT_GT(opt.current, 0.0);
  ASSERT_TRUE(opt.lambda_m.has_value());
  EXPECT_LT(opt.current, *opt.lambda_m);
}

TEST(CurrentOptimizer, SectionSearchAndGradientDescentAgree) {
  auto sys = deployed_system();
  const engine::SolveContext context(sys);
  auto a = optimize_current(context);
  auto b = gradient_descent_current(context);
  EXPECT_NEAR(a.current, b.current, 0.05 * a.current + 0.02);
  EXPECT_NEAR(a.peak_tile_temperature, b.peak_tile_temperature, 0.02);
  ASSERT_TRUE(a.lambda_m && b.lambda_m);
  EXPECT_EQ(*a.lambda_m, *b.lambda_m);
}

TEST(CurrentOptimizer, SectionSearchFindsConvexMinimizer) {
  // A parabola with its minimum inside the interval, and one past an
  // infeasible (+inf) region, as the runaway-guarded objectives have.
  const auto parabola = [](double x) { return (x - 2.7) * (x - 2.7); };
  const auto r = section_search(parabola, 10.0, 1e-6, 1000);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 2.7, 1e-6);
  EXPECT_EQ(r.evaluations % 8, 0u);
  const auto guarded = [](double x) {
    return x > 4.0 ? std::numeric_limits<double>::infinity() : (x - 1.0) * (x - 1.0);
  };
  EXPECT_NEAR(section_search(guarded, 10.0, 1e-6, 1000).x, 1.0, 1e-6);
  // Minima on either end of the interval.
  EXPECT_NEAR(section_search([](double x) { return x; }, 10.0, 1e-6, 1000).x, 0.0, 1e-6);
  EXPECT_NEAR(section_search([](double x) { return -x; }, 10.0, 1e-6, 1000).x, 10.0, 1e-6);
  // The evaluation budget stops the search before the tolerance is met.
  const auto capped = section_search(parabola, 10.0, 1e-6, 16);
  EXPECT_FALSE(capped.converged);
  EXPECT_EQ(capped.evaluations, 16u);
}

TEST(CurrentOptimizer, OptimumIsLocalMinimum) {
  auto sys = deployed_system();
  auto opt = optimize_current(sys);
  const double d = 0.25;
  const double left = sys.solve(std::max(0.0, opt.current - d))->peak_tile_temperature;
  const double right = sys.solve(opt.current + d)->peak_tile_temperature;
  EXPECT_LE(opt.peak_tile_temperature, left + 1e-6);
  EXPECT_LE(opt.peak_tile_temperature, right + 1e-6);
}

TEST(CurrentOptimizer, ObjectiveLooksConvexAlongGrid) {
  // Sampled second differences of max-tile temperature stay nonnegative —
  // the Theorem-3 convexity the optimizer relies on.
  auto sys = deployed_system();
  auto lm = tec::runaway_limit(sys);
  ASSERT_TRUE(lm.has_value());
  const int n = 12;
  std::vector<double> f;
  for (int s = 0; s <= n; ++s) {
    const double i = 0.9 * *lm * double(s) / double(n);
    auto op = sys.solve(i);
    ASSERT_TRUE(op.has_value());
    f.push_back(op->peak_tile_temperature);
  }
  for (int s = 1; s + 1 <= n; ++s) {
    EXPECT_GE(f[s - 1] + f[s + 1] - 2.0 * f[s], -1e-6) << "at sample " << s;
  }
}

TEST(CurrentOptimizer, NoTecSystemTrivial) {
  auto sys = tec::ElectroThermalSystem::assemble(small_geom(), TileMask(), hot_map(),
                                                 tec::TecDeviceParams::chowdhury_superlattice());
  auto opt = optimize_current(sys);
  EXPECT_TRUE(opt.converged);
  EXPECT_EQ(opt.current, 0.0);
  EXPECT_EQ(opt.tec_input_power, 0.0);
  EXPECT_FALSE(opt.lambda_m.has_value());
}

TEST(CurrentOptimizer, ReportsOperatingPoint) {
  auto sys = deployed_system();
  auto opt = optimize_current(sys);
  EXPECT_EQ(opt.operating_point.current, opt.current);
  EXPECT_DOUBLE_EQ(opt.operating_point.peak_tile_temperature, opt.peak_tile_temperature);
  EXPECT_GT(opt.tec_input_power, 0.0);
  EXPECT_GT(opt.objective_evaluations, 10u);
}

TEST(CurrentOptimizer, TighterToleranceRefinesCurrent) {
  auto sys = deployed_system();
  CurrentOptimizerOptions coarse, fine;
  coarse.current_tol = 0.5;
  fine.current_tol = 1e-5;
  auto a = optimize_current(sys, coarse);
  auto b = optimize_current(sys, fine);
  EXPECT_LE(b.peak_tile_temperature, a.peak_tile_temperature + 1e-9);
  EXPECT_LT(b.objective_evaluations * 0 + std::abs(a.current - b.current), 0.5);
}

}  // namespace
}  // namespace tfc::core
