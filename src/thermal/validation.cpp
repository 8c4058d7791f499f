#include "thermal/validation.h"

#include <cmath>
#include <stdexcept>

namespace tfc::thermal {

StackSpec reference_spec(const PackageGeometry& geometry,
                         const ReferenceResolution& resolution) {
  if (resolution.refine == 0) {
    throw std::invalid_argument("ReferenceResolution: refine must be >= 1");
  }
  StackSpec spec = StackSpec::single_die(geometry);
  ChipSpec& chip = spec.chips.front();
  chip.tile_rows *= resolution.refine;
  chip.tile_cols *= resolution.refine;
  chip.layers[0].slabs = resolution.silicon_slabs;
  chip.layers[1].slabs = resolution.tim_slabs;
  spec.spreader_slabs = resolution.spreader_slabs;
  return spec;
}

ValidationReport validate_against_reference(const PackageGeometry& geometry,
                                            const TileMask& tec_tiles,
                                            const TecThermalLink& tec_link,
                                            const linalg::Vector& tile_powers,
                                            const ReferenceResolution& resolution,
                                            const SteadyStateOptions& solver) {
  PackageModel coarse =
      PackageModel::build(StackSpec::single_die(geometry), tec_tiles, tec_link);
  coarse.set_tile_powers(tile_powers);

  // Reference cell (sr, sc) of coarse tile t, row-major on the fine grid.
  const StackSpec fine_spec = reference_spec(geometry, resolution);
  const std::size_t f = resolution.refine;
  const std::size_t cols = geometry.tile_cols;
  const std::size_t fine_cols = cols * f;
  const auto fine_cell = [&](std::size_t t, std::size_t sr, std::size_t sc) {
    return ((t / cols) * f + sr) * fine_cols + (t % cols) * f + sc;
  };

  const double fsq = double(f * f);
  TileMask fine_tecs(geometry.tile_rows * f, fine_cols);
  for (Tile t : tec_tiles.tiles()) {
    for (std::size_t sr = 0; sr < f; ++sr) {
      for (std::size_t sc = 0; sc < f; ++sc) {
        fine_tecs.set(t.row * f + sr, t.col * f + sc);
      }
    }
  }
  const TecThermalLink fine_link{tec_link.g_cold_contact / fsq, tec_link.g_internal / fsq,
                                 tec_link.g_hot_contact / fsq};
  PackageModel fine = PackageModel::build(fine_spec, fine_tecs, fine_link);

  const double share = 1.0 / fsq;
  linalg::Vector fine_powers(fine_tecs.grid_size());
  for (std::size_t t = 0; t < tile_powers.size(); ++t) {
    for (std::size_t sr = 0; sr < f; ++sr) {
      for (std::size_t sc = 0; sc < f; ++sc) {
        fine_powers[fine_cell(t, sr, sc)] = tile_powers[t] * share;
      }
    }
  }
  fine.set_tile_powers(fine_powers);

  SteadyStateOptions fine_solver = solver;
  if (fine.node_count() > 5000) fine_solver.backend = Backend::kCg;

  ValidationReport report;
  report.coarse = coarse.tile_temperatures(solve_steady_state(coarse, solver));
  const linalg::Vector fine_tiles =
      fine.tile_temperatures(solve_steady_state(fine, fine_solver));
  report.reference = linalg::Vector(tile_powers.size());
  for (std::size_t t = 0; t < tile_powers.size(); ++t) {
    double acc = 0.0;
    for (std::size_t sr = 0; sr < f; ++sr) {
      for (std::size_t sc = 0; sc < f; ++sc) acc += fine_tiles[fine_cell(t, sr, sc)];
    }
    report.reference[t] = acc / fsq;
  }
  report.coarse_nodes = coarse.node_count();
  report.reference_nodes = fine.node_count();

  double acc = 0.0;
  for (std::size_t i = 0; i < report.coarse.size(); ++i) {
    const double d = std::abs(report.coarse[i] - report.reference[i]);
    report.max_abs_diff = std::max(report.max_abs_diff, d);
    acc += d;
  }
  report.mean_abs_diff = acc / double(report.coarse.size());
  return report;
}

}  // namespace tfc::thermal
