/// \file cooling_system.h
/// \brief Top-level API: the Cooling System Configuration problem
/// (Problem 1) end to end, plus the Table-I comparison bundle.
///
/// This is the library's front door: give it a chip (geometry + worst-case
/// power map + device parameters + temperature limit) and it returns the TEC
/// deployment, the supply current, and the comparison against the no-TEC and
/// full-cover configurations.
#pragma once

#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/convexity.h"
#include "core/greedy_deploy.h"

namespace tfc::core {

/// A complete problem instance.
struct DesignRequest {
  std::string chip_name = "chip";
  thermal::PackageGeometry geometry;
  /// Declarative package description. When set it takes precedence over
  /// `geometry`: the design runs on the spec's virtual tile grid (all die
  /// grids stacked vertically) and greedy/full-cover deployment is clipped
  /// to the spec's TEC-capable interface sites. StackSpec::single_die(geometry)
  /// reproduces the geometry path bit for bit.
  std::shared_ptr<const thermal::StackSpec> spec;
  /// Worst-case power per tile [W], row-major. With a spec, an empty vector
  /// means "use the spec's own power maps" (layer power_w / floorplans).
  linalg::Vector tile_powers;
  tec::TecDeviceParams device = tec::TecDeviceParams::chowdhury_superlattice();
  /// Maximum allowable tile temperature [°C] (the paper uses 85 °C).
  double theta_limit_celsius = 85.0;
  /// Also run the full-cover baseline (Table I's last two columns).
  bool run_full_cover = true;
  /// Also evaluate the Theorem-4 convexity certificate on the final greedy
  /// deployment.
  bool run_convexity_certificate = false;
  GreedyDeployOptions greedy;
};

/// Everything Table I reports for one chip, plus diagnostics.
struct DesignResult {
  std::string chip_name;
  double theta_limit_celsius = 0.0;

  /// θ_peak with no TEC devices [°C].
  double peak_no_tec_celsius = 0.0;

  /// GreedyDeploy outcome.
  bool success = false;
  std::size_t tec_count = 0;
  double current = 0.0;                  ///< I_opt [A]
  double tec_power = 0.0;                ///< P_TEC [W]
  double peak_greedy_celsius = 0.0;      ///< θ_peak after greedy deployment [°C]
  TileMask deployment;
  std::optional<double> lambda_m;        ///< runaway limit of the deployment [A]
  std::size_t greedy_iterations = 0;

  /// Full-cover baseline (valid when run_full_cover).
  double full_cover_min_peak_celsius = 0.0;  ///< "minθpeak"
  double full_cover_current = 0.0;
  double full_cover_power = 0.0;
  /// SwingLoss = full-cover min peak − greedy peak [°C].
  double swing_loss_celsius = 0.0;

  /// Convexity certificate (valid when run_convexity_certificate and TECs
  /// were deployed).
  std::optional<ConvexityCertificate> convexity;

  /// Wall-clock of the whole design run [ms].
  double runtime_ms = 0.0;
};

/// Solve Problem 1 on one chip and assemble the Table-I row.
DesignResult design_cooling_system(const DesignRequest& request);

/// A DesignResult plus the θ-limits the fallback policy tried.
struct FallbackDesignResult : DesignResult {
  /// Every θ-limit tried [°C], in order: the request's limit first, the
  /// returned result's limit last.
  std::vector<double> attempted_limits;
  std::size_t attempts() const { return attempted_limits.size(); }
};

/// design_cooling_system under the paper's fallback policy: while greedy
/// deployment fails, relax the θ-limit by 1 °C, up to 25 °C above the
/// request's (paper: HC06 → 89 °C, HC09 → 88 °C). Each relaxation is logged
/// at INFO (`design_fallback_relax`). The full-cover baseline depends on no
/// θ-limit, so it runs once and every attempt reports the same one.
FallbackDesignResult design_with_fallback(DesignRequest request);

/// Render a deployment mask as an ASCII tile map ('#' = TEC, '.' = bare),
/// the textual equivalent of Figure 7(b).
std::string deployment_map(const TileMask& deployment);

/// Format one Table-I row:
/// name, θpeak, θlimit, #TECs, Iopt, PTEC, minθpeak(full), SwingLoss.
std::string format_table_row(const DesignResult& r);

/// The matching header line.
std::string table_header();

}  // namespace tfc::core
