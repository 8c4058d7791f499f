/// \file bench_solvers.cpp
/// \brief Performance benchmark P1 (google-benchmark): the linear-algebra
/// kernels underlying every experiment — steady-state solves (dense
/// Cholesky vs sparse Cholesky vs preconditioned CG) on real package
/// matrices, and the two λ_m computations (dense bisection vs Schur
/// reduction).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "linalg/cg.h"
#include "linalg/cholesky.h"
#include "linalg/sparse_cholesky.h"
#include "tec/runaway.h"
#include "thermal/validation.h"

namespace {

using namespace tfc;

/// Package system (with TECs on a 3×5 tile block) on the die grid refined
/// refine× per side: each tile's power spreads over its refine² cells and
/// each TEC becomes refine² parallel sub-devices with the conductances split
/// evenly, so they share the tile's current (tile_current).
tec::ElectroThermalSystem make_system(std::size_t refine) {
  thermal::ReferenceResolution res;
  res.refine = refine;
  res.silicon_slabs = res.tim_slabs = res.spreader_slabs = 1;
  const thermal::StackSpec spec =
      thermal::reference_spec(thermal::PackageGeometry{}, res);
  const std::size_t n = 12 * refine;
  TileMask dep(n, n);
  for (std::size_t r = 3 * refine; r < 6 * refine; ++r) {
    for (std::size_t c = 3 * refine; c < 8 * refine; ++c) dep.set(r, c);
  }
  const auto dev = tec::TecDeviceParams::chowdhury_superlattice();
  const double fsq = double(refine * refine);
  const thermal::TecThermalLink link = dev.thermal_link();
  auto model = thermal::PackageModel::build(
      spec, dep,
      {link.g_cold_contact / fsq, link.g_internal / fsq, link.g_hot_contact / fsq});
  static const auto powers = bench::worst_case_map(floorplan::alpha21364());
  linalg::Vector fine(n * n);
  for (std::size_t k = 0; k < fine.size(); ++k) {
    fine[k] = powers[(k / n / refine) * 12 + (k % n) / refine] / fsq;
  }
  model.set_tile_powers(fine);
  return tec::ElectroThermalSystem(std::move(model), dev);
}

/// Sub-device current of make_system(refine) when each tile draws 4 A.
double tile_current(std::size_t refine) { return 4.0 / double(refine * refine); }

void BM_SteadySolve_SparseCholesky(benchmark::State& state) {
  auto sys = make_system(std::size_t(state.range(0)));
  const double i = tile_current(std::size_t(state.range(0)));
  const auto a = sys.system_matrix(i);
  const auto b = sys.rhs(i);
  for (auto _ : state) {
    auto f = linalg::SparseCholeskyFactor::factor(a);
    benchmark::DoNotOptimize(f->solve(b));
  }
  state.counters["nodes"] = double(sys.node_count());
}
BENCHMARK(BM_SteadySolve_SparseCholesky)->Arg(1)->Arg(2)->Arg(3);

void BM_SteadySolve_SparseCholeskyMinDegree(benchmark::State& state) {
  auto sys = make_system(std::size_t(state.range(0)));
  const double i = tile_current(std::size_t(state.range(0)));
  const auto a = sys.system_matrix(i);
  const auto b = sys.rhs(i);
  for (auto _ : state) {
    auto f = linalg::SparseCholeskyFactor::factor(a, linalg::FillOrdering::kMinDegree);
    benchmark::DoNotOptimize(f->solve(b));
  }
  state.counters["nodes"] = double(sys.node_count());
}
BENCHMARK(BM_SteadySolve_SparseCholeskyMinDegree)->Arg(1)->Arg(2)->Arg(3);

void BM_SteadySolve_DenseCholesky(benchmark::State& state) {
  auto sys = make_system(std::size_t(state.range(0)));
  const double i = tile_current(std::size_t(state.range(0)));
  const auto a = sys.system_matrix(i).to_dense();
  const auto b = sys.rhs(i);
  for (auto _ : state) {
    auto f = linalg::CholeskyFactor::factor(a);
    benchmark::DoNotOptimize(f->solve(b));
  }
  state.counters["nodes"] = double(sys.node_count());
}
BENCHMARK(BM_SteadySolve_DenseCholesky)->Arg(1)->Arg(2);

void BM_SteadySolve_Cg(benchmark::State& state) {
  auto sys = make_system(std::size_t(state.range(0)));
  const double i = tile_current(std::size_t(state.range(0)));
  const auto a = sys.system_matrix(i);
  const auto b = sys.rhs(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::cg_solve(a, b, {}));
  }
  state.counters["nodes"] = double(sys.node_count());
}
BENCHMARK(BM_SteadySolve_Cg)->Arg(1)->Arg(2)->Arg(3);

void BM_RunawayLimit_Schur(benchmark::State& state) {
  auto sys = make_system(std::size_t(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tec::runaway_limit(sys));
  }
  state.counters["nodes"] = double(sys.node_count());
}
BENCHMARK(BM_RunawayLimit_Schur)->Arg(1)->Arg(2);

void BM_RunawayLimit_DenseBisect(benchmark::State& state) {
  auto sys = make_system(std::size_t(state.range(0)));
  tec::RunawayOptions opts;
  opts.method = tec::RunawayMethod::kDenseBisect;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tec::runaway_limit(sys, opts));
  }
  state.counters["nodes"] = double(sys.node_count());
}
BENCHMARK(BM_RunawayLimit_DenseBisect)->Arg(1);

void BM_FullDesign_Alpha(benchmark::State& state) {
  static const auto powers = bench::worst_case_map(floorplan::alpha21364());
  for (auto _ : state) {
    core::DesignRequest req;
    req.tile_powers = powers;
    req.run_full_cover = false;
    benchmark::DoNotOptimize(core::design_cooling_system(req));
  }
}
BENCHMARK(BM_FullDesign_Alpha)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
