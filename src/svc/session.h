/// \file session.h
/// \brief The request surface `tfcool serve` and the `tfcool` CLI share:
/// parameter checks, the one session builder, the sweep loop and the
/// simulate-options mapping.
///
/// Both surfaces read the same params — the service from a request line,
/// the CLI from its flags (`--max-fraction` ↔ `max_fraction`, `--tec-on` ↔
/// `tec_on_step`) — and reject a bad value with the same
/// ProtocolError(kBadRequest) message.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/json.h"
#include "sim/scenario.h"
#include "svc/session_cache.h"
#include "tec/runaway.h"

namespace tfc::svc {

/// Throw ProtocolError(kBadRequest, \p message) unless \p ok.
void require(bool ok, const std::string& message);

/// Integer param \p key in [lo, hi], \p fallback when absent.
std::size_t integer_param(const io::JsonValue& params, const std::string& key,
                          double fallback, double lo, double hi);

/// "current" [A], nonnegative; nullopt when absent (the design optimum).
std::optional<double> current_param(const io::JsonValue& params);

/// "method" as a λ_m eigensolver, \p fallback when absent.
tec::RunawayMethod runaway_method_param(const io::JsonValue& params,
                                        tec::RunawayMethod fallback);

/// The chip a session is designed for. chip_input() sets the key (and a
/// spec's package) without synthesizing anything, so a cache hit costs no
/// floorplan or workload work; the builder resolves the floorplan and
/// worst-case tile powers on a miss. The CLI's --flp/--ptrace import fills
/// everything itself.
struct ChipInput {
  SessionKey key;
  /// Single-die package (built-in chips and imports); unused with a spec.
  thermal::PackageGeometry geometry;
  std::shared_ptr<const thermal::StackSpec> spec;
  std::shared_ptr<const floorplan::Floorplan> plan;  ///< null until resolved
  linalg::Vector tile_powers;
};

/// "limit" (°C in (0, 500], default 85) and "spec" (a StackSpec file, keyed
/// by content hash) or else "chip" (default alpha).
ChipInput chip_input(const io::JsonValue& params);

/// Resolve the floorplan and worst-case tile powers unless already set:
/// the built-in chip lookup (alpha, hc1..hc99; anything else is
/// bad_request) plus workload synthesis, or the spec's own maps.
void resolve_chip(ChipInput& chip);

/// Design choices beyond the key; the service always uses the defaults.
struct SessionOptions {
  bool full_cover = false;  ///< also run the full-cover baseline (Table I)
  bool certify = false;     ///< also run the Theorem-4 convexity certificate
  engine::EngineOptions engine;
};

/// The one session builder: resolve \p chip, design it at its θ-limit —
/// relaxed 1 °C at a time, up to +25 °C, while greedy deployment fails —
/// and assemble the SolveContext on the deployment. λ_m is left to the
/// context, which computes and caches it on first use.
std::shared_ptr<const Session> build_session(ChipInput chip,
                                             const SessionOptions& options = {});

/// Peak temperature and TEC power at "points" + 1 currents (integer in
/// [1, 10000], default 25) from 0 to "max_fraction" (in (0, 1), default
/// 0.95) of λ_m, up to the first current without an operating point.
struct SweepCurve {
  std::vector<double> current_a;
  std::vector<double> peak_celsius;
  std::vector<double> tec_power_w;
};
SweepCurve sweep(const io::JsonValue& params, const engine::SolveContext& context,
                 double lambda_m);

/// Checked `simulate` params ("steps" defaults to \p default_steps) as
/// scenario options on \p session at supply ceiling \p current. With TECs
/// deployed and current > 0, the controller picks among {0, current/2,
/// current}, each given tec_on_step/tec_off_step is scheduled, and open
/// loop without a schedule drives the TECs from step 0.
sim::ScenarioOptions scenario_options(const io::JsonValue& params, const Session& session,
                                      double current, std::size_t default_steps);

}  // namespace tfc::svc
