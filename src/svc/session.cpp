#include "svc/session.h"

#include <cmath>
#include <cstdlib>

#include "floorplan/alpha21364.h"
#include "floorplan/random_chip.h"
#include "io/spec_json.h"
#include "obs/obs.h"
#include "power/power_profile.h"
#include "power/workload.h"
#include "svc/protocol.h"

namespace tfc::svc {

namespace {

/// Package hash of the default single-die geometry — the built-in chips'
/// SessionKey::package component, computed once.
const std::string& default_package_hash() {
  static const std::string hash = io::spec_content_hash(
      thermal::StackSpec::single_die(thermal::PackageGeometry{}));
  return hash;
}

/// Built-in benchmark chips: "alpha" and "hc1".."hc99".
floorplan::Floorplan builtin_chip(const std::string& name) {
  const unsigned long n =
      name.rfind("hc", 0) == 0 ? std::strtoul(name.c_str() + 2, nullptr, 10) : 0;
  if (name == "alpha") return floorplan::alpha21364();
  if (n >= 1 && n <= 99) return floorplan::hypothetical_chip(n);
  throw ProtocolError(ErrorCode::kBadRequest,
                      "unknown chip '" + name + "' (use alpha or hc<N>)");
}

}  // namespace

void require(bool ok, const std::string& message) {
  if (!ok) throw ProtocolError(ErrorCode::kBadRequest, message);
}

std::size_t integer_param(const io::JsonValue& params, const std::string& key,
                          double fallback, double lo, double hi) {
  const double v = params.number_or(key, fallback);
  // Stated positively so a NaN (a CLI flag that is not a number) fails.
  require(v >= lo && v <= hi && v == std::floor(v),
          "'" + key + "' must be an integer in [" + std::to_string(std::size_t(lo)) +
              ", " + std::to_string(std::size_t(hi)) + "]");
  return std::size_t(v);
}

std::optional<double> current_param(const io::JsonValue& params) {
  const io::JsonValue* v = params.get("current");
  if (v == nullptr || !v->is_number()) return std::nullopt;
  require(v->as_number() >= 0.0, "'current' must be nonnegative");
  return v->as_number();
}

tec::RunawayMethod runaway_method_param(const io::JsonValue& params,
                                        tec::RunawayMethod fallback) {
  const std::string name = params.string_or("method", tec::runaway_method_name(fallback));
  const auto method = tec::parse_runaway_method(name);
  require(method.has_value(), "unknown runaway method '" + name + "' (use " +
                                  tec::runaway_method_list() + ")");
  return *method;
}

ChipInput chip_input(const io::JsonValue& params) {
  ChipInput chip;
  SessionKey& key = chip.key;
  key.theta_limit_celsius = params.number_or("limit", 85.0);
  require(key.theta_limit_celsius > 0.0 && key.theta_limit_celsius <= 500.0,
          "'limit' must be in (0, 500] degC");
  const std::string spec_path = params.string_or("spec", "");
  if (spec_path.empty()) {
    key.chip = params.string_or("chip", "alpha");
    key.tile_rows = chip.geometry.tile_rows;
    key.tile_cols = chip.geometry.tile_cols;
    key.package = default_package_hash();
    return chip;
  }
  try {
    chip.spec =
        std::make_shared<const thermal::StackSpec>(io::load_stack_spec(spec_path));
  } catch (const std::exception& e) {
    throw ProtocolError(ErrorCode::kBadRequest, std::string("bad 'spec': ") + e.what());
  }
  key.chip = chip.spec->name.empty() ? "spec" : chip.spec->name;
  key.tile_rows = chip.spec->total_tile_rows();
  key.tile_cols = chip.spec->tile_cols();
  key.package = io::spec_content_hash(*chip.spec);
  return chip;
}

void resolve_chip(ChipInput& chip) {
  if (chip.plan != nullptr) return;
  if (chip.spec != nullptr) {
    chip.plan =
        std::make_shared<const floorplan::Floorplan>(chip.spec->combined_floorplan());
    chip.tile_powers = chip.spec->tile_powers();
    return;
  }
  chip.plan = std::make_shared<const floorplan::Floorplan>(builtin_chip(chip.key.chip));
  power::WorkloadSynthesizer synth(*chip.plan);
  chip.tile_powers =
      power::worst_case_profile(*chip.plan, synth.synthesize_suite(8)).tile_powers();
}

std::shared_ptr<const Session> build_session(ChipInput chip,
                                             const SessionOptions& options) {
  resolve_chip(chip);
  core::DesignRequest req;
  req.chip_name = chip.key.chip;
  req.geometry = chip.geometry;
  req.spec = chip.spec;
  req.tile_powers = chip.tile_powers;
  req.theta_limit_celsius = chip.key.theta_limit_celsius;
  req.run_full_cover = options.full_cover;
  req.run_convexity_certificate = options.certify;
  req.greedy.engine = options.engine;

  auto session = std::make_shared<Session>();
  session->key = chip.key;
  while (true) {
    session->design = core::design_cooling_system(req);
    if (session->design.success ||
        req.theta_limit_celsius >= chip.key.theta_limit_celsius + 25.0) {
      break;
    }
    req.theta_limit_celsius += 1.0;
    TFC_LOG_INFO("design_fallback_relax", {"chip", chip.key.chip},
                 {"theta_limit_c", req.theta_limit_celsius});
  }

  session->context =
      chip.spec != nullptr
          ? std::make_shared<const engine::SolveContext>(
                chip.spec, session->design.deployment, chip.tile_powers, req.device,
                options.engine)
          : std::make_shared<const engine::SolveContext>(
                chip.geometry, session->design.deployment, chip.tile_powers, req.device,
                options.engine);
  session->geometry = chip.geometry;
  session->spec = std::move(chip.spec);
  session->plan = std::move(chip.plan);
  session->tile_powers = std::move(chip.tile_powers);
  TFC_LOG_INFO("svc_session_built", {"key", session->key.to_string()},
               {"tecs", session->design.tec_count});
  return session;
}

SweepCurve sweep(const io::JsonValue& params, const engine::SolveContext& context,
                 double lambda_m) {
  const std::size_t points = integer_param(params, "points", 25.0, 1.0, 10000.0);
  const double max_fraction = params.number_or("max_fraction", 0.95);
  require(max_fraction > 0.0 && max_fraction < 1.0, "'max_fraction' must be in (0, 1)");
  SweepCurve curve;
  const double hi = max_fraction * lambda_m;
  for (std::size_t s = 0; s <= points; ++s) {
    const double i = hi * double(s) / double(points);
    const auto op = context.solve(i);
    if (!op) break;
    curve.current_a.push_back(i);
    curve.peak_celsius.push_back(thermal::to_celsius(op->peak_tile_temperature));
    curve.tec_power_w.push_back(op->tec_input_power);
  }
  return curve;
}

sim::ScenarioOptions scenario_options(const io::JsonValue& params, const Session& session,
                                      double current, std::size_t default_steps) {
  sim::ScenarioOptions opts;
  opts.benchmark = params.string_or("benchmark", "bench00");
  opts.steps = integer_param(params, "steps", double(default_steps), 1.0, 100000.0);
  opts.dt = params.number_or("dt", 1e-3);
  require(opts.dt > 0.0 && opts.dt <= 10.0, "'dt' must be in (0, 10] seconds");
  const double frame_every = params.number_or("frame_every", 10.0);
  const double control_every = params.number_or("control_every", 10.0);
  const auto positive_integer = [](double v) {
    return v >= 1.0 && v == double(std::size_t(v));
  };
  require(positive_integer(frame_every) && positive_integer(control_every),
          "'frame_every'/'control_every' must be positive integers");
  opts.frame_every = std::size_t(frame_every);
  opts.control_every = std::size_t(control_every);
  opts.dtm = params.bool_or("dtm", true);
  opts.include_tiles = params.bool_or("tiles", false);
  opts.start_from_steady_state = !params.bool_or("cold_start", false);
  opts.policy.theta_limit = thermal::to_kelvin(session.key.theta_limit_celsius);
  // A negative step schedules nothing; NaN (a CLI flag that is not a
  // number) is an error.
  const double on_step = params.number_or("tec_on_step", -1.0);
  const double off_step = params.number_or("tec_off_step", -1.0);
  require(!std::isnan(on_step) && !std::isnan(off_step),
          "'tec_on_step'/'tec_off_step' must be numbers");
  if (session.design.tec_count == 0 || !(current > 0.0)) return opts;
  if (opts.dtm) opts.policy.current_levels = {0.0, 0.5 * current, current};
  if (on_step >= 0.0) opts.schedule.push_back({std::size_t(on_step), current});
  if (off_step >= 0.0) opts.schedule.push_back({std::size_t(off_step), 0.0});
  if (!opts.dtm && opts.schedule.empty()) opts.schedule.push_back({0, current});
  return opts;
}

}  // namespace tfc::svc
