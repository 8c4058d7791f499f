/// The spectral TEC-block model inside the design flow: on every deployment
/// the Figure-5 loop (with the θ-limit fallback) and the full-cover baseline
/// visit — all 11 Table-I chips and the shipped example specs — the
/// block-model probe must agree with the sparse refactorization to the
/// surrogate tolerance the search relies on, across [0, 0.999·λ_m] and at
/// the optimum, and both must report infeasibility just past λ_m. Plus the
/// two design-level consumers of the new λ_m and pin descent: the Theorem-4
/// certificate on the dual-chip example, and the nesting of pin groupings
/// (a finer grouping is never worse) on every chip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "core/convexity.h"
#include "core/cooling_system.h"
#include "core/current_optimizer.h"
#include "core/greedy_deploy.h"
#include "core/multipin.h"
#include "engine/solve_context.h"
#include "floorplan/alpha21364.h"
#include "floorplan/random_chip.h"
#include "io/spec_json.h"
#include "obs/obs.h"
#include "power/workload.h"

namespace tfc {
namespace {

struct Case {
  std::string name;
  std::shared_ptr<const thermal::StackSpec> spec;
  linalg::Vector powers;
};

/// Table-I chip \p index (0 = Alpha), as the CLI builds it.
Case chip_case(std::size_t index) {
  auto plan = index == 0 ? floorplan::alpha21364() : floorplan::hypothetical_chip(index);
  power::WorkloadSynthesizer synth(plan);
  auto profile = power::worst_case_profile(plan, synth.synthesize_suite(8));
  return {index == 0 ? "Alpha" : floorplan::hypothetical_chip_name(index),
          std::make_shared<const thermal::StackSpec>(
              thermal::StackSpec::single_die(thermal::PackageGeometry{})),
          profile.tile_powers()};
}

Case example_case(const std::string& name) {
  auto spec = std::make_shared<const thermal::StackSpec>(
      io::load_stack_spec(std::string(TFC_EXAMPLES_DIR) + "/" + name + ".json"));
  return {name, spec, spec->tile_powers()};
}

/// Wraps a context's readout: at every read-back (once per deployment the
/// search optimizes) the block-model probe is compared with the sparse
/// refactorization at the first section-search round's eight currents, at
/// the optimum, and just past λ_m.
class ProbeChecker {
 public:
  core::PeakReadout readout(const engine::SolveContext& ctx) {
    core::PeakReadout r = core::probe_readout(ctx);
    r.solve = [this, &ctx, solve = r.solve](double i) {
      if (ctx.device_count() > 0) check_deployment(ctx, i);
      return solve(i);
    };
    return r;
  }

  std::size_t deployments() const { return deployments_; }
  std::size_t feasibility_mismatches() const { return feasibility_mismatches_; }
  double worst_rel() const { return worst_rel_; }

 private:
  void compare(const engine::SolveContext& ctx, double i) {
    const auto fast = ctx.probe_peak(i);
    const auto exact = ctx.refactor_peak(i);
    if (fast.has_value() != exact.has_value()) {
      ++feasibility_mismatches_;
    } else if (fast) {
      worst_rel_ = std::max(worst_rel_, std::abs(*fast - *exact) / *exact);
    }
  }

  void check_deployment(const engine::SolveContext& ctx, double optimum) {
    ++deployments_;
    const double lm = *ctx.runaway_limit(core::CurrentOptimizerOptions{}.runaway);
    for (int j = 1; j <= 8; ++j) compare(ctx, 0.999 * lm * j / 9.0);
    compare(ctx, optimum);
    if (ctx.probe_peak(1.001 * lm) || ctx.refactor_peak(1.001 * lm)) {
      ++feasibility_mismatches_;
    }
  }

  std::size_t deployments_ = 0;
  std::size_t feasibility_mismatches_ = 0;
  double worst_rel_ = 0.0;
};

/// Greedy with the paper's θ-limit fallback, then full cover, every visited
/// deployment checked. Returns the number of reduced-model probes taken.
std::size_t check_design_probes(const Case& c) {
  const auto device = tec::TecDeviceParams::chowdhury_superlattice();
  core::GreedyDeployOptions opts;
  ProbeChecker checker;
  auto& reduced = obs::MetricsRegistry::global().counter("engine.probe.reduced");
  const std::uint64_t reduced0 = reduced.value();

  for (double limit = 85.0; limit <= 110.0; limit += 1.0) {
    engine::SolveContext ctx(c.spec, TileMask(), c.powers, device, opts.engine);
    opts.theta_max = thermal::to_kelvin(limit);
    const auto res = core::greedy_deploy_impl(ctx, c.spec->tec_allowed_tiles(), opts,
                                              checker.readout(ctx));
    if (res.success) break;
  }
  engine::SolveContext full(c.spec, c.spec->tec_allowed_tiles(), c.powers, device,
                            opts.engine);
  (void)core::optimize_current(full, opts.current, checker.readout(full));

  EXPECT_GT(checker.deployments(), 0u) << c.name;
  EXPECT_EQ(checker.feasibility_mismatches(), 0u) << c.name;
  EXPECT_LE(checker.worst_rel(), core::kSurrogateRelTol) << c.name;
  return reduced.value() - reduced0;
}

class ChipDesignProbes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChipDesignProbes, ReducedProbeMatchesSparseOnEveryVisitedDeployment) {
  // Every Table-I deployment, full cover included (2m = 288), is reduced.
  EXPECT_GT(check_design_probes(chip_case(GetParam())), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllChips, ChipDesignProbes,
                         ::testing::Range<std::size_t>(0, 11));

class ExampleDesignProbes : public ::testing::TestWithParam<std::string> {};

TEST_P(ExampleDesignProbes, ReducedProbeMatchesSparseOnEveryVisitedDeployment) {
  EXPECT_GT(check_design_probes(example_case(GetParam())), 0u);
}

INSTANTIATE_TEST_SUITE_P(Examples, ExampleDesignProbes,
                         ::testing::Values("paper_single_die", "stacked_2die",
                                           "dual_chip_shared_sink"));

TEST(ExampleDesignProbes, HighresExampleNeverReachesTheModel) {
  // The 100×100 example deploys nothing at 85 °C (bare peak 78.3 °C), and
  // its full-cover block (10 000 devices) is far above the reduction cap, so
  // every probe of its design runs on the sparse refactorization already.
  const Case c = example_case("highres_100x100");
  EXPECT_GT(2 * c.spec->tec_allowed_tiles().count(),
            engine::SolveContext::kMaxReducedBlock);
}

TEST(BlockModelDesign, ConvexityCertifiesDualChipExample) {
  // Its symmetric placement defeats the sparse Lanczos; the certificate's
  // λ_m comes from the exact block eigensolve.
  const Case c = example_case("dual_chip_shared_sink");
  core::DesignRequest req;
  req.chip_name = c.name;
  req.spec = c.spec;
  req.run_full_cover = false;
  req.run_convexity_certificate = true;
  const auto res = core::design_cooling_system(req);
  ASSERT_TRUE(res.success);
  ASSERT_TRUE(res.convexity.has_value());
  EXPECT_TRUE(res.convexity->certified);
  ASSERT_TRUE(res.lambda_m.has_value());
  EXPECT_EQ(res.convexity->lambda_m, *res.lambda_m);  // one λ_m code path
}

class PinNesting : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PinNesting, FinerPinGroupingIsNeverWorse) {
  // shared pin ⊒ two hotness tiers ⊒ one pin per device.
  const Case c = chip_case(GetParam());
  core::DesignRequest req;
  req.chip_name = c.name;
  req.tile_powers = c.powers;
  req.run_full_cover = false;
  const auto res = core::design_with_fallback(req);
  ASSERT_TRUE(res.success);
  const auto sys = tec::ElectroThermalSystem::assemble(
      thermal::PackageGeometry{}, res.deployment, c.powers,
      tec::TecDeviceParams::chowdhury_superlattice());
  core::MultiPinOptions opts;  // coarse: the nesting holds for any budget
  opts.max_sweeps = 1;
  opts.current_tol = 5e-2;
  const auto tiers =
      core::optimize_grouped_pins(sys, core::hotness_groups(sys, 2), res.current, opts);
  const auto per_device = core::optimize_multi_pin(sys, res.current, opts);
  const double shared = thermal::to_kelvin(res.peak_greedy_celsius);
  EXPECT_LE(tiers.peak_tile_temperature, shared + 1e-9) << c.name;
  EXPECT_LE(per_device.peak_tile_temperature, tiers.peak_tile_temperature) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllChips, PinNesting, ::testing::Range<std::size_t>(0, 11));

}  // namespace
}  // namespace tfc
