#include "thermal/package_model.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <ostream>

#include "linalg/cholesky.h"
#include "linalg/properties.h"
#include "thermal/steady_state.h"
#include "thermal/validation.h"

namespace tfc::thermal {
namespace {

PackageGeometry small_geometry() {
  PackageGeometry g;
  g.tile_rows = 4;
  g.tile_cols = 4;
  g.die_width = 2e-3;
  g.die_height = 2e-3;
  return g;
}

TecThermalLink test_link() { return {0.02, 0.01, 0.05}; }

/// The single-die package \p g with TECs on \p tecs.
PackageModel build(const PackageGeometry& g, const TileMask& tecs = {},
                   const TecThermalLink& link = {}, std::size_t stages = 1) {
  return PackageModel::build(StackSpec::single_die(g), tecs, link, stages);
}

TEST(PackageModel, NodeCountDefault) {
  PackageModel m = build(PackageGeometry{});
  // 144 silicon + 144 TIM + 144+8 spreader + 144+8+8 sink = 600.
  EXPECT_EQ(m.node_count(), 600u);
}

TEST(PackageModel, MatrixIsIrreduciblePdStieltjes) {
  // Lemma 1 on a real package network.
  PackageModel m = build(small_geometry());
  auto g = m.network().conductance_matrix();
  EXPECT_TRUE(g.is_symmetric(1e-15));
  EXPECT_TRUE(linalg::is_stieltjes(g));
  EXPECT_TRUE(linalg::is_irreducible(g));
  EXPECT_TRUE(linalg::is_irreducibly_diagonally_dominant(g));
  EXPECT_TRUE(linalg::is_positive_definite(g.to_dense()));
}

TEST(PackageModel, EnergyConservation) {
  PackageModel m = build(small_geometry());
  linalg::Vector p(16);
  for (std::size_t i = 0; i < 16; ++i) p[i] = 0.1 + 0.01 * double(i);
  m.set_tile_powers(p);
  auto theta = solve_steady_state(m);
  double q_out = 0.0;
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const double g = m.network().ambient_conductance(i);
    if (g > 0.0) q_out += g * (theta[i] - m.geometry().ambient);
  }
  EXPECT_NEAR(q_out, m.network().total_power(), 1e-9 * m.network().total_power());
}

TEST(PackageModel, ZeroPowerGivesAmbientEverywhere) {
  PackageModel m = build(small_geometry());
  auto theta = solve_steady_state(m);
  for (std::size_t i = 0; i < theta.size(); ++i) {
    EXPECT_NEAR(theta[i], m.geometry().ambient, 1e-9);
  }
}

TEST(PackageModel, AllTemperaturesAboveAmbientUnderLoad) {
  PackageModel m = build(small_geometry());
  linalg::Vector p(16, 0.2);
  m.set_tile_powers(p);
  auto theta = solve_steady_state(m);
  for (std::size_t i = 0; i < theta.size(); ++i) {
    EXPECT_GT(theta[i], m.geometry().ambient);
  }
}

TEST(PackageModel, SiliconHotterThanSink) {
  PackageModel m = build(small_geometry());
  linalg::Vector p(16, 0.3);
  m.set_tile_powers(p);
  auto theta = solve_steady_state(m);
  double max_sink = 0.0;
  double min_sil = 1e9;
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const auto& info = m.network().node(i);
    if (info.kind == NodeKind::kSilicon) min_sil = std::min(min_sil, theta[i]);
    if (info.kind == NodeKind::kSinkCenter) max_sink = std::max(max_sink, theta[i]);
  }
  EXPECT_GT(min_sil, max_sink);
}

TEST(PackageModel, HotTileIsLocalPeak) {
  PackageModel m = build(small_geometry());
  linalg::Vector p(16, 0.05);
  p[1 * 4 + 2] = 0.8;
  m.set_tile_powers(p);
  auto tt = m.tile_temperatures(solve_steady_state(m));
  EXPECT_EQ(linalg::argmax(tt), std::size_t{1 * 4 + 2});
}

TEST(PackageModel, MorePowerMeansHotterEverywhere) {
  // Monotonicity of the M-matrix inverse: raising one tile's power cannot
  // cool any node.
  PackageModel m = build(small_geometry());
  linalg::Vector p(16, 0.1);
  m.set_tile_powers(p);
  auto t1 = solve_steady_state(m);
  p[5] += 0.5;
  m.set_tile_powers(p);
  auto t2 = solve_steady_state(m);
  for (std::size_t i = 0; i < t1.size(); ++i) EXPECT_GE(t2[i] + 1e-12, t1[i]);
}

TEST(PackageModel, TilePowerValidation) {
  PackageModel m = build(small_geometry());
  EXPECT_THROW(m.set_tile_powers(linalg::Vector(5)), std::invalid_argument);
  linalg::Vector neg(16);
  neg[0] = -1.0;
  EXPECT_THROW(m.set_tile_powers(neg), std::invalid_argument);
}

TEST(PackageModel, BadOptionsThrow) {
  PackageGeometry g = small_geometry();
  g.spreader_side = 1e-3;  // smaller than die
  EXPECT_THROW(build(g), std::invalid_argument);
  TileMask wrong_shape(3, 3);
  wrong_shape.set(0, 0);
  EXPECT_THROW(build(small_geometry(), wrong_shape, test_link()), std::invalid_argument);
  TileMask one(4, 4);
  one.set(0, 0);
  EXPECT_THROW(build(small_geometry(), one, TecThermalLink{}), std::invalid_argument);
  EXPECT_THROW(build(small_geometry(), one, test_link(), /*stages=*/0),
               std::invalid_argument);
}

TEST(PackageModel, TecNodesCreatedAndTimRemoved) {
  TileMask tecs(4, 4);
  tecs.set(1, 1);
  tecs.set(2, 3);
  PackageModel m = build(small_geometry(), tecs, test_link());

  EXPECT_TRUE(m.has_tec({1, 1}));
  EXPECT_TRUE(m.has_tec({2, 3}));
  EXPECT_FALSE(m.has_tec({0, 0}));
  EXPECT_EQ(m.tec_tiles().size(), 2u);
  EXPECT_EQ(m.hot_nodes().size(), 2u);
  EXPECT_EQ(m.cold_nodes().size(), 2u);
  EXPECT_THROW(m.tec_cold_node({0, 0}), std::invalid_argument);

  // Node budget: base 4x4 model has 16*2 + (16+8) + (16+8+8) = 88 nodes; two
  // TIM nodes are replaced by two (hot, cold) pairs: 88 - 2 + 4 = 90.
  PackageModel base = build(small_geometry());
  EXPECT_EQ(m.node_count(), base.node_count() + 2u);

  // Network still Lemma-1 conformant.
  auto g = m.network().conductance_matrix();
  EXPECT_TRUE(linalg::is_stieltjes(g));
  EXPECT_TRUE(linalg::is_irreducible(g));
  EXPECT_TRUE(linalg::is_positive_definite(g.to_dense()));
}

TEST(PackageModel, TecAtZeroCurrentActsAsPassivePath) {
  // With no Peltier/Joule stamping the TEC is just a conductance chain; the
  // package must still solve and stay warmer than ambient.
  TileMask tecs(4, 4);
  tecs.set(2, 2);
  PackageModel m = build(small_geometry(), tecs, test_link());
  linalg::Vector p(16, 0.2);
  m.set_tile_powers(p);
  auto theta = solve_steady_state(m);
  const double cold = theta[m.tec_cold_node({2, 2})];
  const double hot = theta[m.tec_hot_node({2, 2})];
  EXPECT_GT(cold, m.geometry().ambient);
  // Passive heat flows silicon → cold → hot → spreader, so cold ≥ hot.
  EXPECT_GE(cold, hot);
}

TEST(PackageModel, RefinedModelsHaveMoreNodes) {
  PackageModel coarse = build(small_geometry());
  PackageModel fine =
      PackageModel::build(reference_spec(small_geometry(), {2, 2, 1, 1}), {}, {});
  EXPECT_GT(fine.node_count(), 4 * coarse.node_count() / 2);
  EXPECT_EQ(fine.silicon_nodes().size(), 64u);
}

TEST(PackageModel, NoSpreaderOverhangDegenerateGeometry) {
  PackageGeometry g = small_geometry();
  g.spreader_side = g.die_width;  // no overhang
  g.sink_side = 10e-3;
  PackageModel m = build(g);
  linalg::Vector p(16, 0.1);
  m.set_tile_powers(p);
  EXPECT_TRUE(linalg::is_irreducible(m.network().conductance_matrix()));
  auto theta = solve_steady_state(m);
  EXPECT_GT(m.peak_tile_temperature(theta), m.geometry().ambient);
}

TEST(PackageModel, NoSinkOverhangDegenerateGeometry) {
  PackageGeometry g = small_geometry();
  g.sink_side = g.spreader_side;
  PackageModel m = build(g);
  linalg::Vector p(16, 0.1);
  m.set_tile_powers(p);
  auto theta = solve_steady_state(m);
  EXPECT_GT(m.peak_tile_temperature(theta), m.geometry().ambient);
}

TEST(PackageModel, FullyDegenerateStack) {
  PackageGeometry g = small_geometry();
  g.spreader_side = g.die_width;
  g.sink_side = g.die_width;
  PackageModel m = build(g);
  // 16 sil + 16 tim + 16 spreader + 16 sink, no periphery.
  EXPECT_EQ(m.node_count(), 64u);
  linalg::Vector p(16, 0.1);
  m.set_tile_powers(p);
  auto theta = solve_steady_state(m);
  double q_out = 0.0;
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const double g = m.network().ambient_conductance(i);
    if (g > 0.0) q_out += g * (theta[i] - m.geometry().ambient);
  }
  EXPECT_NEAR(q_out, 1.6, 1e-9);
}

TEST(PackageModel, ConvectionLegsSumToTotalConductance) {
  PackageModel m = build(small_geometry());
  double g_sum = 0.0;
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    g_sum += m.network().ambient_conductance(i);
  }
  EXPECT_NEAR(g_sum, 1.0 / m.geometry().convection_resistance, 1e-9 * g_sum);
}

TEST(PackageModel, TileQueriesValidated) {
  PackageModel m = build(small_geometry());
  EXPECT_THROW(m.silicon_node({9, 0}), std::out_of_range);
  EXPECT_THROW(m.silicon_node({0, 4}), std::out_of_range);
  EXPECT_THROW(m.tec_hot_node({0, 0}), std::invalid_argument);
}

// --- frozen digests of the retired geometry-only builder --------------------
// FNV-1a digests of G (row_ptr, col_idx, values), the ambient legs, the node
// capacitances and the TEC cold/hot node lists, recorded from the former
// PackageGeometry builder (one die grid with optional lateral refinement and
// per-layer slabs) before it was deleted. The spec builder must reproduce
// each of those models bit for bit.

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

template <typename Range, typename Word>
std::uint64_t digest(const Range& values, Word&& word) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& v : values) h = fnv1a(h, word(v));
  return h;
}

std::uint64_t bits(double d) {
  std::uint64_t w;
  std::memcpy(&w, &d, sizeof w);
  return w;
}

std::uint64_t index(std::size_t i) { return i; }

/// {row_ptr, col_idx, values, ambient legs, capacitances, cold, hot}.
using Digest = std::array<std::uint64_t, 7>;

Digest digest_of(const PackageModel& m) {
  const linalg::SparseMatrix g = m.network().conductance_matrix();
  std::vector<double> ambient(m.node_count());
  for (std::size_t n = 0; n < ambient.size(); ++n) {
    ambient[n] = m.network().ambient_conductance(n);
  }
  const linalg::Vector cap = m.network().capacitance_vector();
  std::vector<double> caps(cap.size());
  for (std::size_t n = 0; n < cap.size(); ++n) caps[n] = cap[n];
  return {digest(g.row_ptr(), index), digest(g.col_idx(), index),
          digest(g.values(), bits),   digest(ambient, bits),
          digest(caps, bits),         digest(m.cold_nodes(), index),
          digest(m.hot_nodes(), index)};
}

struct FrozenCase {
  const char* name;
  PackageModel (*build)();
  std::size_t nodes;
  Digest digest;
};

void PrintTo(const FrozenCase& c, std::ostream* os) { *os << c.name; }

const TecThermalLink kFrozenLink{0.5, 0.25, 0.5};

PackageModel default_3tec(PackageGeometry g, std::size_t stages) {
  TileMask tecs(g.tile_rows, g.tile_cols);
  tecs.set(3, 4);
  tecs.set(7, 7);
  tecs.set(0, 11);
  return build(g, tecs, kFrozenLink, stages);
}

PackageModel small_package(PackageGeometry g, bool with_tec) {
  TileMask tecs(g.tile_rows, g.tile_cols);
  if (with_tec) tecs.set(1, 2);
  return build(g, tecs, kFrozenLink);
}

PackageGeometry no_spreader_overhang() {
  PackageGeometry g = small_geometry();
  g.spreader_side = g.die_width;
  g.sink_side = 10e-3;
  return g;
}

PackageGeometry no_sink_overhang() {
  PackageGeometry g = small_geometry();
  g.sink_side = g.spreader_side;
  return g;
}

PackageGeometry with_secondary_path() {
  PackageGeometry g;
  g.model_secondary_path = true;
  return g;
}

const FrozenCase kFrozenCases[] = {
    {"default_3tec", [] { return default_3tec({}, 1); }, 603,
     {0x8ce070e2f8496b6dull, 0x2a4a89c986e0dc04ull, 0x11e18ae31f02f2a2ull,
      0x7c8a44c6e2435be3ull, 0xfc7d2b34735f1bb5ull, 0xbdba560ef8a74402ull,
      0xb57eefb228ccc3d5ull}},
    {"default_3tec_2stage", [] { return default_3tec({}, 2); }, 609,
     {0x7b1aaeafcd647606ull, 0x9a4beb761102025bull, 0x0b1d9c55053af5c2ull,
      0xf74ba3a6c78baf23ull, 0x63745a98669b8515ull, 0x927960308bdda855ull,
      0x3c16a8943d352785ull}},
    {"default_3tec_secondary", [] { return default_3tec(with_secondary_path(), 1); }, 605,
     {0xc3d774a99494c1e3ull, 0xf23e623dfadbe9dcull, 0x77b0d0ce6be09bd3ull,
      0xe88cf6c3934d93c5ull, 0x0401dd9ab16559c9ull, 0xbdba560ef8a74402ull,
      0xb57eefb228ccc3d5ull}},
    {"no_spreader_overhang",
     [] { return small_package(no_spreader_overhang(), false); },
     72,
     {0xe7680b5e062ac1d8ull, 0x8f5dc921bf910963ull, 0x324fa27b8bb505abull,
      0xe102efeb4d5d0dd3ull, 0x7b7a45086064d643ull, 0x14650fb0739d0383ull,
      0x14650fb0739d0383ull}},
    {"no_spreader_overhang_1tec",
     [] { return small_package(no_spreader_overhang(), true); },
     73,
     {0x42533bf5ab312ff1ull, 0x0cf2b8f7c3b74756ull, 0x3c6bffc6a2d14d7full,
      0x7125a85e3c2fe033ull, 0x65ba413c5e9a4231ull, 0x2dd45e821ed5d33cull,
      0x06afcfc16b60da23ull}},
    {"no_sink_overhang", [] { return small_package(no_sink_overhang(), false); }, 80,
     {0x58363d5d4916b204ull, 0xfd1c222fb5096c03ull, 0xaea560634f27e9dbull,
      0xf566b00c62c651c3ull, 0xa6cce22e303ebffbull, 0x14650fb0739d0383ull,
      0x14650fb0739d0383ull}},
    {"no_sink_overhang_1tec", [] { return small_package(no_sink_overhang(), true); }, 81,
     {0x1264b1a70e5c5399ull, 0xab8f4d0d733e5416ull, 0xb279abba2a07a61bull,
      0x362dd4a17eb54923ull, 0x5fc1c8a8b1df7e99ull, 0x2dd45e821ed5d33cull,
      0x06afcfc16b60da23ull}},
    // Bare validation reference: 4× lateral refinement, 3/1/3 slabs.
    {"reference_r4_313",
     [] {
       return PackageModel::build(reference_spec({}, ReferenceResolution{}), {}, {});
     },
     18456,
     {0x8961e49a44baf352ull, 0x7161dfbb949ee33full, 0x9979c5eeac122d0bull,
      0xa2683fb0eb9da1c3ull, 0xae01c8fad784f863ull, 0x14650fb0739d0383ull,
      0x14650fb0739d0383ull}},
};

class PackageModelFrozen : public ::testing::TestWithParam<FrozenCase> {};

TEST_P(PackageModelFrozen, BuildMatchesFrozenDigest) {
  const FrozenCase& c = GetParam();
  const PackageModel m = c.build();
  ASSERT_EQ(m.node_count(), c.nodes);
  const Digest got = digest_of(m);
  const char* field[7] = {"row_ptr", "col_idx", "values", "ambient",
                          "capacitance", "cold", "hot"};
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], c.digest[k]) << field[k];
  }
}

// Default index names: gtest_discover_tests swaps each index for the
// PrintTo value, so ctest lists the cases by name.
INSTANTIATE_TEST_SUITE_P(RetiredBuilder, PackageModelFrozen,
                         ::testing::ValuesIn(kFrozenCases));

}  // namespace
}  // namespace tfc::thermal
