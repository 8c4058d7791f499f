/// End-to-end determinism: the full design pipeline must emit byte-identical
/// JSON for any --threads value. This is the contract that makes the
/// parallel layer safe to enable by default.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "core/multi_scenario.h"
#include "core/multipin.h"
#include "par/thread_pool.h"

namespace tfc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string design_json(const std::string& threads, const std::string& path) {
  std::ostringstream out, err;
  const int code = cli::run_cli(
      {"design", "--chip", "alpha", "--threads", threads, "--json", path}, out, err);
  EXPECT_EQ(code, 0) << err.str();
  return slurp(path);
}

std::string design_json_backend(const std::string& threads,
                                const std::string& backend,
                                const std::string& path) {
  std::ostringstream out, err;
  const int code = cli::run_cli({"design", "--chip", "alpha", "--threads", threads,
                                 "--backend", backend, "--json", path},
                                out, err);
  EXPECT_EQ(code, 0) << err.str();
  return slurp(path);
}

TEST(ParDeterminism, DesignJsonIsByteIdenticalAcrossThreadCounts) {
  const std::string f1 = "design_threads1.json";
  const std::string f8 = "design_threads8.json";
  const std::string one = design_json("1", f1);
  const std::string eight = design_json("8", f8);
  std::remove(f1.c_str());
  std::remove(f8.c_str());
  par::ThreadPool::set_global_threads(0);

  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
}

TEST(ParDeterminism, DesignJsonIsByteIdenticalAcrossEngineBackends) {
  // The engine's design probe path is pinned to the direct factorization, so
  // the selected point-solve backend must not perturb the output either.
  const std::string f = "design_backend.json";
  const std::string reference = design_json("4", f);
  for (const char* backend : {"cholesky", "cg"}) {
    for (const char* threads : {"1", "8"}) {
      EXPECT_EQ(design_json_backend(threads, backend, f), reference)
          << backend << " threads=" << threads;
    }
  }
  std::remove(f.c_str());
  par::ThreadPool::set_global_threads(0);

  ASSERT_FALSE(reference.empty());
}

// The pin descent and the multi-scenario design run the section search's
// probes on the pool; their results must not depend on its size either.

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 6;
  g.die_width = g.die_height = 3e-3;
  return g;
}

std::vector<linalg::Vector> two_scenarios() {
  linalg::Vector a(36, 0.10), b(36, 0.10);
  a[2 * 6 + 2] = a[2 * 6 + 3] = 0.60;
  b[4 * 6 + 4] = 0.65;
  return {a, b};
}

core::GroupedPinResult grouped_pins_at(std::size_t threads) {
  par::ThreadPool::set_global_threads(threads);
  TileMask dep(6, 6);
  dep.set(2, 2);
  dep.set(2, 3);
  dep.set(4, 4);
  dep.set(3, 2);
  const auto sys = tec::ElectroThermalSystem::assemble(
      small_geom(), dep, two_scenarios()[0], tec::TecDeviceParams::chowdhury_superlattice());
  core::MultiPinOptions o;
  o.max_sweeps = 2;
  return core::optimize_grouped_pins(sys, {0, 1, 1, 0}, 1.0, o);
}

core::MultiScenarioResult multi_scenario_at(std::size_t threads) {
  par::ThreadPool::set_global_threads(threads);
  core::GreedyDeployOptions o;
  o.theta_max = thermal::to_kelvin(63.0);
  return core::greedy_deploy_multi(small_geom(), two_scenarios(),
                                   tec::TecDeviceParams::chowdhury_superlattice(), o);
}

TEST(ParDeterminism, GroupedPinsAreBitIdenticalAcrossThreadCounts) {
  const auto one = grouped_pins_at(1);
  const auto eight = grouped_pins_at(8);
  par::ThreadPool::set_global_threads(0);

  ASSERT_EQ(one.group_currents.size(), 2u);
  EXPECT_EQ(one.group_currents, eight.group_currents);
  EXPECT_EQ(one.peak_tile_temperature, eight.peak_tile_temperature);
  EXPECT_EQ(one.tec_input_power, eight.tec_input_power);
  EXPECT_EQ(one.sweeps, eight.sweeps);
}

TEST(ParDeterminism, MultiScenarioIsBitIdenticalAcrossThreadCounts) {
  const auto one = multi_scenario_at(1);
  const auto eight = multi_scenario_at(8);
  par::ThreadPool::set_global_threads(0);

  ASSERT_TRUE(one.success);
  EXPECT_EQ(one.deployment, eight.deployment);
  EXPECT_EQ(one.current, eight.current);
  EXPECT_EQ(one.peak_tile_temperature, eight.peak_tile_temperature);
  EXPECT_EQ(one.scenario_peaks, eight.scenario_peaks);
  EXPECT_EQ(one.iterations, eight.iterations);
}

}  // namespace
}  // namespace tfc
