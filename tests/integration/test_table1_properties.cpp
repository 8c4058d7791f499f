/// Table-I shape properties, asserted per benchmark chip (parameterized
/// sweep over Alpha + HC01..HC10). These are the row-level claims of the
/// paper's evaluation, checked as invariants rather than as one-off bench
/// output.
#include <gtest/gtest.h>

#include "core/cooling_system.h"
#include "floorplan/alpha21364.h"
#include "floorplan/random_chip.h"
#include "power/workload.h"

namespace tfc {
namespace {

struct Chip {
  std::string name;
  linalg::Vector powers;
};

Chip chip_for(std::size_t index) {
  auto plan = index == 0 ? floorplan::alpha21364() : floorplan::hypothetical_chip(index);
  power::WorkloadSynthesizer synth(plan);
  auto profile = power::worst_case_profile(plan, synth.synthesize_suite(8));
  return {index == 0 ? "Alpha" : floorplan::hypothetical_chip_name(index),
          profile.tile_powers()};
}

core::DesignResult design_with_fallback(const Chip& chip) {
  core::DesignRequest req;
  req.chip_name = chip.name;
  req.tile_powers = chip.powers;
  return core::design_with_fallback(req);
}

class Table1Sweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Table1Sweep, RowShapeMatchesPaper) {
  const auto chip = chip_for(GetParam());
  const auto res = design_with_fallback(chip);

  // Every benchmark chip needs active cooling (θpeak above 85 °C bare).
  EXPECT_GT(res.peak_no_tec_celsius, 85.0) << chip.name;

  // The designer finds a feasible configuration (possibly at a relaxed
  // limit, the paper's HC06/HC09 mechanism).
  ASSERT_TRUE(res.success) << chip.name;
  EXPECT_LE(res.peak_greedy_celsius, res.theta_limit_celsius + 1e-9);

  // Table-I magnitude bands (generous envelopes around the paper's 11 rows).
  EXPECT_GE(res.tec_count, 5u) << chip.name;
  EXPECT_LE(res.tec_count, 40u) << chip.name;
  EXPECT_GT(res.current, 2.0) << chip.name;
  EXPECT_LT(res.current, 14.0) << chip.name;
  EXPECT_GT(res.tec_power, 0.2) << chip.name;
  EXPECT_LT(res.tec_power, 8.0) << chip.name;

  // Operating far below the runaway limit.
  ASSERT_TRUE(res.lambda_m.has_value()) << chip.name;
  EXPECT_LT(res.current, 0.25 * *res.lambda_m) << chip.name;

  // Full cover is never better than greedy (positive SwingLoss) and cannot
  // meet the 85 °C limit anywhere greedy barely meets it.
  EXPECT_GT(res.swing_loss_celsius, 0.0) << chip.name;

  // Cooling swing within the Chowdhury-reported on-demand band, stretched
  // for the hottest random chips.
  const double swing = res.peak_no_tec_celsius - res.peak_greedy_celsius;
  EXPECT_GE(swing, 4.0) << chip.name;
  EXPECT_LE(swing, 22.0) << chip.name;

  // Runtime claim, with three orders of margin over 2010 hardware.
  EXPECT_LT(res.runtime_ms, 180000.0) << chip.name;
}

INSTANTIATE_TEST_SUITE_P(AllChips, Table1Sweep, ::testing::Range<std::size_t>(0, 11));

}  // namespace
}  // namespace tfc
