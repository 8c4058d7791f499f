/// \file validation.h
/// \brief Compact-vs-reference model comparison (the paper's HotSpot 4.1
/// validation: "the worst-case difference is less than 1.5 °C").
///
/// The reference model is the same package discretized finer (lateral
/// refinement + z-slabs per layer) — the role HotSpot/FEM plays in the paper.
#pragma once

#include "common/tile.h"
#include "linalg/vector.h"
#include "thermal/package_model.h"
#include "thermal/stack_spec.h"
#include "thermal/steady_state.h"

namespace tfc::thermal {

/// Result of one validation run.
struct ValidationReport {
  /// Per-tile temperatures [K] from the compact (coarse) model.
  linalg::Vector coarse;
  /// Per-tile temperatures [K] from the refined reference model.
  linalg::Vector reference;
  /// max_k |coarse_k - reference_k| [K].
  double max_abs_diff = 0.0;
  /// mean_k |coarse_k - reference_k| [K].
  double mean_abs_diff = 0.0;
  std::size_t coarse_nodes = 0;
  std::size_t reference_nodes = 0;
};

/// Reference discretization parameters.
struct ReferenceResolution {
  /// Lateral refinement: each tile becomes refine × refine reference cells.
  std::size_t refine = 4;
  /// Z-discretization per layer (silicon / TIM / spreader).
  std::size_t silicon_slabs = 3;
  std::size_t tim_slabs = 1;
  std::size_t spreader_slabs = 3;
};

/// The reference discretization of the single-die package \p geometry: its
/// die grid resolution.refine× finer per side, with the slab counts of
/// \p resolution.
StackSpec reference_spec(const PackageGeometry& geometry,
                         const ReferenceResolution& resolution);

/// Run the same power map through the compact model of \p geometry and its
/// refined reference, and compare tile temperatures. \p tile_powers is the
/// worst-case power map [W per tile], spread evenly over each tile's
/// reference cells; a reference tile temperature is the mean over its cells.
/// Passive TECs sit on \p tec_tiles (an empty mask: the bare package); in
/// the reference each one becomes refine² parallel sub-devices, each with
/// the \p tec_link conductances ÷ refine².
ValidationReport validate_against_reference(const PackageGeometry& geometry,
                                            const TileMask& tec_tiles,
                                            const TecThermalLink& tec_link,
                                            const linalg::Vector& tile_powers,
                                            const ReferenceResolution& resolution = {},
                                            const SteadyStateOptions& solver = {});

}  // namespace tfc::thermal
