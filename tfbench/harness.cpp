/// \file harness.cpp
/// \brief tfcool benchmark harness: one seeded workload per process.
///
///   tfbench --workload <design_table1|highres_spec|transient_dtm|service_open>
///           --seed N --seconds S [--trace] [--out FILE] [--hash-inputs]
///
/// Builds the workload's inputs from the seed, sets up (five times; the
/// median is reported), runs the timed loop (for S seconds, or for whole
/// units of work whose number follows from S), then checks every output.
/// Raw samples, failures, check errors, the machine fingerprint and
/// (with --trace) the span list plus per-layer probes go to one JSON document
/// (FILE or stdout); tfbench/run.py turns it into metrics. With
/// --hash-inputs it prints only an FNV-1a digest of the generated inputs.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "core/baselines.h"
#include "core/cooling_system.h"
#include "core/current_optimizer.h"
#include "core/greedy_deploy.h"
#include "engine/solve_context.h"
#include "floorplan/alpha21364.h"
#include "floorplan/random_chip.h"
#include "io/design_json.h"
#include "io/json.h"
#include "io/spec_json.h"
#include "linalg/lanczos.h"
#include "obs/build_info.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "par/thread_pool.h"
#include "power/workload.h"
#include "sim/scenario.h"
#include "spans.h"
#include "svc/client.h"
#include "svc/server.h"
#include "tec/electro_thermal.h"
#include "tec/runaway.h"
#include "thermal/stack_spec.h"

namespace {

using namespace tfc;
using io::JsonValue;
using tfbench::Span;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <class F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

bool rel_close(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({std::abs(a), std::abs(b), 1e-300});
}

// --- seeded generation ------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Deterministic stream per (seed, purpose): inputs never depend on timing.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream) : state_(seed * 0x2545f4914f6cdd1dull ^ stream) {
    splitmix64(state_);
  }
  std::uint64_t next() { return splitmix64(state_); }
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::size_t below(std::size_t n) { return std::size_t(next() % n); }

 private:
  std::uint64_t state_;
};

/// FNV-1a over the byte images of the generated inputs.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void num(double d) { bytes(&d, sizeof d); }
  void num(std::uint64_t u) { bytes(&u, sizeof u); }
  void str(const std::string& s) { bytes(s.data(), s.size()); num(std::uint64_t(s.size())); }
  void vec(const linalg::Vector& v) {
    num(std::uint64_t(v.size()));
    bytes(v.data(), v.size() * sizeof(double));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- run record -------------------------------------------------------------

/// Everything a workload reports back: samples per named series, typed
/// failures (each with its input), output-check errors, and counts.
struct Report {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::vector<JsonValue> failures;
  std::vector<std::string> check_errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  JsonValue extra = JsonValue::make_object();

  void sample(const std::string& series, double v) { samples[series].push_back(v); }
  void fail(const std::string& kind, JsonValue input, const std::string& what) {
    ++failed;
    JsonValue f = JsonValue::make_object();
    f.set("kind", JsonValue::make_string(kind));
    f.set("input", std::move(input));
    f.set("error", JsonValue::make_string(what));
    failures.push_back(std::move(f));
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_errors.push_back(what);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool hash_inputs = false;
  std::string out;
  std::string work_dir = ".";  ///< where the service socket lives (the --out directory)
};

/// Set-up runs this many times per run and reports the median: one slow
/// set-up (a cold process, a stalled core) must not move the figure.
constexpr std::size_t kSetupReps = 5;

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Pool threads and client connections: the machine's hardware threads,
/// capped at 4 so one benchmark process never oversubscribes a small box.
std::size_t load_threads() { return std::min<std::size_t>(hardware_threads(), 4); }

const tec::TecDeviceParams& device() {
  static const tec::TecDeviceParams d = tec::TecDeviceParams::chowdhury_superlattice();
  return d;
}

// --- measurement window -----------------------------------------------------

/// Whole units of work only (a Table-I pass, a highres round): one per
/// started \p unit_s of the requested seconds, at least \p min_units. The
/// count follows from the command line, never from the measured speed, so a
/// faster machine measures the same samples and the tail keeps its rank.
std::size_t work_units(double seconds, double unit_s, std::size_t min_units) {
  return std::max(min_units, std::size_t(std::ceil(seconds / unit_s)));
}

/// Open the timed window: zero the library's metrics registry and, in the
/// traced run, start a fresh profiler window.
void open_window(const Options& o) {
  obs::MetricsRegistry::global().reset();
  if (o.trace) {
    obs::prof::Profiler::global().enable();
    obs::prof::Profiler::global().snapshot(true);
  }
}

/// Read, without changing, the registry counters and the profiler snapshot
/// the timed window left behind.
void close_window(const Options& o, Report& rep) {
  rep.extra.set("metrics", io::parse_json(obs::MetricsRegistry::global().to_json()));
  if (o.trace) {
    const auto snap = obs::prof::Profiler::global().snapshot(false);
    obs::prof::Profiler::global().disable();
    rep.extra.set("prof", io::parse_json(obs::prof::to_json(snap)));
  }
}

// --- per-layer probe (traced run only) --------------------------------------

/// A system of the workload, re-measured layer by layer with the engine's
/// own assembly and symbolic analysis so an ordering change follows through.
struct ProbeSystem {
  std::string label;
  thermal::PackageGeometry geometry;
  std::shared_ptr<const thermal::StackSpec> spec;
  TileMask deployment;
  linalg::Vector powers;
  double current = 0.0;
  bool schur = true;  ///< also time the Schur λ_m (skipped where it costs seconds)
};

void layer_probe(const std::vector<ProbeSystem>& systems, std::size_t reps, Report& rep) {
  for (const auto& ps : systems) {
    Span root("probe", 0);
    std::optional<tec::ElectroThermalSystem> sys;
    rep.sample("thermal.assemble_s", timed([&] {
                 Span s("tec.ElectroThermalSystem.assemble");
                 sys.emplace(ps.spec ? tec::ElectroThermalSystem::assemble_from_spec(
                                           *ps.spec, ps.deployment, ps.powers, device())
                                     : tec::ElectroThermalSystem::assemble(
                                           ps.geometry, ps.deployment, ps.powers, device()));
               }));
    rep.sample("thermal.nodes", double(sys->node_count()));
    const linalg::SparseCholeskySymbolic* sym = nullptr;
    rep.sample("linalg.analyze_s", timed([&] {
                 Span s("tec.ElectroThermalSystem.cholesky_symbolic");
                 sym = &sys->cholesky_symbolic();
               }));
    const double nnz = double(sym->factor_nnz());
    rep.sample("linalg.factor_nnz", nnz);
    // One CSC entry of L is a (row index, value) pair.
    rep.sample("linalg.refactor_bytes",
               nnz * double(sizeof(std::size_t) + sizeof(double)));

    tec::SolveWorkspace ws;
    for (std::size_t r = 0; r < reps; ++r) {
      bool ok = false;
      rep.sample("linalg.refactor_s", timed([&] {
                   Span s("tec.ElectroThermalSystem.factorize_into");
                   ok = sys->factorize_into(ps.current, ws);
                 }));
      rep.check(ok, "probe " + ps.label + ": factorize_into failed below λ_m");
      if (!ok) break;
      sys->rhs_into(ps.current, ws.rhs);
      rep.sample("linalg.solve_s", timed([&] {
                   Span s("linalg.SparseCholeskyFactor.solve_into");
                   ws.factor.solve_into(ws.rhs, ws.theta, ws.solve_scratch);
                 }));
    }

    if (sys->device_count() > 0) {
      ++rep.attempted;
      rep.values["tec.runaway_attempts"] += 1;
      try {
        tec::RunawayResult rr;
        rep.sample("tec.runaway_sparse_s", timed([&] {
                     Span s("tec.runaway_limit_ex");
                     rr = tec::runaway_limit_ex(*sys, tec::RunawayOptions{});
                   }));
        rep.sample("linalg.lanczos_iters", double(rr.iterations));
      } catch (const linalg::LanczosNonConvergedError& e) {
        rep.values["tec.runaway_failed"] += 1;
        rep.sample("linalg.lanczos_iters", double(e.iterations()));
        JsonValue in = JsonValue::make_object();
        in.set("probe", JsonValue::make_string(ps.label));
        in.set("tecs", JsonValue::make_number(double(sys->device_count())));
        in.set("nodes", JsonValue::make_number(double(sys->node_count())));
        rep.fail("LanczosNonConvergedError", in, e.what());
      }
      if (ps.schur) {
        tec::RunawayOptions schur;
        schur.method = tec::RunawayMethod::kSchur;
        rep.sample("tec.runaway_schur_s", timed([&] {
                     Span s("tec.runaway_limit");
                     (void)tec::runaway_limit(*sys, schur);
                   }));
      }
    }

    // Engine: probe at the operating current, and one incremental extension
    // (the last deployed tile added onto the rest).
    auto make_ctx = [&](const TileMask& mask) {
      return ps.spec ? std::make_unique<engine::SolveContext>(ps.spec, mask, ps.powers, device())
                     : std::make_unique<engine::SolveContext>(ps.geometry, mask, ps.powers,
                                                              device());
    };
    auto ctx = make_ctx(ps.deployment);
    for (std::size_t r = 0; r < reps; ++r) {
      rep.sample("engine.probe_s", timed([&] {
                   Span s("engine.SolveContext.probe_peak");
                   (void)ctx->probe_peak(ps.current);
                 }));
    }
    const auto tiles = ps.deployment.tiles();
    if (!tiles.empty()) {
      TileMask base = ps.deployment;
      base.set(tiles.back(), false);
      auto grow = make_ctx(base);
      TileMask add(ps.deployment.rows(), ps.deployment.cols());
      add.set(tiles.back());
      rep.sample("engine.extend_s", timed([&] {
                   Span s("engine.SolveContext.extend");
                   grow->extend(add);
                 }));
    }
  }
}

// --- design_table1 ----------------------------------------------------------

struct ChipCase {
  std::string name;
  floorplan::Floorplan plan;
  linalg::Vector powers;
};

const char* const kTable1Chips[] = {"alpha", "hc1", "hc2", "hc3", "hc4", "hc5",
                                    "hc6",   "hc7", "hc8", "hc9", "hc10"};

/// Seconds of --seconds per 11-chip pass (one pass takes 5–11 s at 4 pool
/// threads on a 4-vCPU Xeon VM). Two passes give 22 design samples, so the
/// "10 beyond" tail is the 12th smallest: about the median chip, not HC09.
constexpr double kTable1PassS = 10.0;

floorplan::Floorplan chip_plan(const std::string& name) {
  if (name == "alpha") return floorplan::alpha21364();
  return floorplan::hypothetical_chip(std::stoul(name.substr(2)));
}

/// Worst-case power map over a synthesized 8-benchmark suite, as the CLI
/// derives it; the seed picks the suite's activity traces.
std::vector<power::ActivityTrace> synth_suite(const floorplan::Floorplan& plan,
                                              std::uint64_t seed, std::uint64_t chip) {
  power::WorkloadOptions wo;
  wo.seed = Rng(seed, 0x5eed0000 + chip).next();
  return power::WorkloadSynthesizer(plan, wo).synthesize_suite(8);
}

linalg::Vector synth_powers(const floorplan::Floorplan& plan, std::uint64_t seed,
                            std::uint64_t chip) {
  Span s("power.worst_case_profile");
  return power::worst_case_profile(plan, synth_suite(plan, seed, chip)).tile_powers();
}

std::vector<ChipCase> table1_inputs(std::uint64_t seed) {
  std::vector<ChipCase> chips;
  for (std::size_t c = 0; c < std::size(kTable1Chips); ++c) {
    ChipCase cc{kTable1Chips[c], chip_plan(kTable1Chips[c]), {}};
    cc.powers = synth_powers(cc.plan, seed, c);
    chips.push_back(std::move(cc));
  }
  return chips;
}

struct Attempt {
  double limit_c = 0.0;
  double seconds = 0.0;
  bool success = false;
};

/// The CLI's θ-limit fallback: start at \p limit, relax by 1 °C until the
/// design succeeds or the limit is 25 °C above the start.
core::DesignResult design_with_fallback(const core::DesignRequest& base, double limit,
                                        std::vector<Attempt>& attempts) {
  core::DesignRequest req = base;
  req.theta_limit_celsius = limit;
  core::DesignResult res;
  for (;;) {
    const auto t0 = Clock::now();
    {
      Span s("core.design_cooling_system");
      res = core::design_cooling_system(req);
    }
    attempts.push_back({req.theta_limit_celsius, seconds_since(t0), res.success});
    if (res.success || req.theta_limit_celsius >= limit + 25.0) return res;
    req.theta_limit_celsius += 1.0;
  }
}

std::string design_key(const core::DesignResult& r) {
  return io::design_result_to_json(r, 0);
}

void check_golden(const core::DesignResult& got, const std::string& path, Report& rep) {
  std::ifstream in(path);
  if (!in) {
    rep.check(false, "golden missing: " + path);
    return;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const core::DesignResult want = io::design_result_from_json(ss.str());
  const std::string who = "golden " + want.chip_name + ": ";
  rep.check(got.deployment == want.deployment, who + "deployment differs");
  rep.check(got.success == want.success, who + "success differs");
  rep.check(got.tec_count == want.tec_count, who + "tec_count differs");
  rep.check(got.greedy_iterations == want.greedy_iterations, who + "greedy_iterations differs");
  const std::pair<const char*, std::pair<double, double>> fields[] = {
      {"theta_limit_celsius", {got.theta_limit_celsius, want.theta_limit_celsius}},
      {"peak_no_tec_celsius", {got.peak_no_tec_celsius, want.peak_no_tec_celsius}},
      {"peak_greedy_celsius", {got.peak_greedy_celsius, want.peak_greedy_celsius}},
      {"current_a", {got.current, want.current}},
      {"tec_power_w", {got.tec_power, want.tec_power}},
      {"lambda_m_a", {got.lambda_m.value_or(0.0), want.lambda_m.value_or(0.0)}},
  };
  for (const auto& [name, v] : fields) {
    rep.check(rel_close(v.first, v.second, 1e-9), who + name + " differs: " +
                                                       std::to_string(v.first) + " vs " +
                                                       std::to_string(v.second));
  }
}

/// Re-solve at I_opt through SolveContext::solve and certify it.
void check_design(const ChipCase& chip, const core::DesignResult& r, Report& rep) {
  const std::string who = "design " + chip.name + ": ";
  rep.check(r.success, who + "no successful design");
  if (!r.success) return;
  rep.check(r.peak_greedy_celsius <= r.theta_limit_celsius + 1e-9, who + "peak above limit");
  engine::SolveContext ctx(thermal::PackageGeometry{}, r.deployment, chip.powers, device());
  const auto op = ctx.solve(r.current);
  rep.check(op.has_value(), who + "re-solve at I_opt failed");
  if (!op) return;
  rep.check(rel_close(thermal::to_celsius(op->peak_tile_temperature), r.peak_greedy_celsius, 1e-9),
            who + "re-solved peak disagrees with the reported peak");
  rep.check(ctx.audit(*op).pass(obs::health::Tolerances{}), who + "audit certificate failed");
}

void run_design_table1(const Options& o, Report& rep) {
  par::ThreadPool::set_global_threads(load_threads());
  core::DesignRequest base;
  base.run_full_cover = true;
  std::vector<ChipCase> chips;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    rep.sample("setup_s", timed([&] {
                 chips = table1_inputs(o.seed);
                 // Warm the pool threads, allocator and code paths on Alpha so
                 // the first timed chips do not pay for them.
                 core::DesignRequest warm = base;
                 warm.tile_powers = chips[0].powers;
                 (void)core::design_cooling_system(warm);
               }));
  }
  open_window(o);

  std::vector<std::string> first_pass;
  std::vector<core::DesignResult> results(chips.size());
  double fallback_waste = 0.0, design_total = 0.0;
  std::uint64_t request = 0;
  const std::size_t passes = work_units(o.seconds, kTable1PassS, 2);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::vector<std::string> keys;
    const double pass_s = timed([&] {
      for (std::size_t c = 0; c < chips.size(); ++c) {
        Span s("design_chip", ++request);
        core::DesignRequest req = base;
        req.chip_name = chips[c].name;
        req.tile_powers = chips[c].powers;
        std::vector<Attempt> attempts;
        ++rep.attempted;
        JsonValue in = JsonValue::make_object();
        in.set("chip", JsonValue::make_string(chips[c].name));
        in.set("seed", JsonValue::make_number(double(o.seed)));
        const auto t0 = Clock::now();
        try {
          results[c] = design_with_fallback(req, 85.0, attempts);
        } catch (const std::exception& e) {
          // A failed design misses any latency limit: run.py counts every
          // design_failed_s sample as infinite latency.
          rep.sample("design_failed_s", seconds_since(t0));
          rep.fail(std::string("design:") + typeid(e).name(), in, e.what());
          continue;
        }
        const double dt = seconds_since(t0);
        rep.sample(results[c].success ? "design_s" : "design_failed_s", dt);
        rep.sample("fallback_attempts", double(attempts.size()));
        design_total += dt;
        for (const auto& a : attempts) fallback_waste += a.success ? 0.0 : a.seconds;
        if (!results[c].success) {
          rep.fail("design:no_feasible_limit", in, "no θ-limit within +25 °C succeeded");
        }
        keys.push_back(design_key(results[c]));
      }
    });
    rep.sample("table1_s", pass_s);
    if (first_pass.empty()) {
      first_pass = keys;
    } else {
      rep.check(keys == first_pass, "design results differ between passes");
    }
  }
  rep.values["core.fallback_waste"] = design_total > 0.0 ? fallback_waste / design_total : 0.0;
  close_window(o, rep);

  if (o.trace) {
    // Greedy scaling on Alpha: one pool thread against load_threads().
    core::GreedyDeployOptions go;
    for (std::size_t threads : {std::size_t(1), load_threads()}) {
      par::ThreadPool::set_global_threads(threads);
      rep.sample(threads == 1 ? "par.greedy_1thread_s" : "par.greedy_pool_s", timed([&] {
                   Span s("core.greedy_deploy");
                   (void)core::greedy_deploy(thermal::PackageGeometry{}, chips[0].powers,
                                             device(), go);
                 }));
    }
    par::ThreadPool::set_global_threads(load_threads());
    {
      engine::SolveContext ctx(thermal::PackageGeometry{}, results[0].deployment,
                               chips[0].powers, device());
      core::CurrentOptimum opt;
      rep.sample("core.optimize_current_s", timed([&] {
                   Span s("core.optimize_current");
                   opt = core::optimize_current(ctx);
                 }));
      rep.values["core.optimize_evals"] = double(opt.objective_evaluations);
      rep.sample("core.full_cover_call_s", timed([&] {
                   Span s("core.full_cover");
                   (void)core::full_cover(thermal::PackageGeometry{}, chips[0].powers, device());
                 }));
    }
    std::vector<ProbeSystem> probes;
    for (std::size_t c = 0; c < chips.size(); ++c) {
      if (!results[c].success || results[c].deployment.empty()) continue;
      probes.push_back({chips[c].name, thermal::PackageGeometry{}, nullptr,
                        results[c].deployment, chips[c].powers, results[c].current, true});
    }
    layer_probe(probes, 5, rep);
  }

  for (std::size_t c = 0; c < chips.size(); ++c) {
    check_design(chips[c], results[c], rep);
    if (chips[c].name == "alpha" || chips[c].name == "hc3") {
      check_golden(results[c], "tests/data/golden_design_" + chips[c].name + ".json", rep);
    }
  }
}

// --- highres_spec -----------------------------------------------------------

constexpr std::size_t kHighresGrid = 50;
constexpr std::size_t kHighresSolves = 4;
constexpr std::size_t kHighresRound = 5;  ///< instances per round: sides 2..6
/// Seconds of --seconds per round (one round, with its untimed Schur
/// cross-checks, takes ~12 s on a 4-vCPU Xeon VM). One round gives 20
/// solves, so the "10 beyond" solve tail sits at about the median.
constexpr double kHighresRoundS = 15.0;

struct HighresInstance {
  std::shared_ptr<const thermal::StackSpec> spec;
  linalg::Vector powers;
  std::size_t side = 0, row = 0, col = 0;
  std::vector<double> fractions;  ///< solve currents as fractions of λ_m
  TileMask mask() const {
    TileMask m(kHighresGrid, kHighresGrid);
    for (std::size_t r = row; r < row + side; ++r) {
      for (std::size_t c = col; c < col + side; ++c) m.set(r, c);
    }
    return m;
  }
  JsonValue describe(std::uint64_t seed, std::size_t index) const {
    JsonValue j = JsonValue::make_object();
    j.set("seed", JsonValue::make_number(double(seed)));
    j.set("instance", JsonValue::make_number(double(index)));
    j.set("grid", JsonValue::make_string(std::to_string(kHighresGrid) + "x" +
                                         std::to_string(kHighresGrid)));
    j.set("block", JsonValue::make_string(std::to_string(side) + "x" + std::to_string(side) +
                                          "@(" + std::to_string(row) + "," +
                                          std::to_string(col) + ")"));
    return j;
  }
};

/// Instance \p index of the seeded stream: a 6 mm 50×50 single die with 1–3
/// Gaussian hotspots over a uniform floor (25–35 W in all), one centred
/// square TEC block, and seeded solve currents. Block sides cycle 2..6 in
/// every round of five instances. The block is centred on every draw: RCM
/// fill swings between 2.2 M and 4.7 M nonzeros as a block moves, even by
/// ±3 tiles, which made a run's median solve time depend on its draw (IQR
/// 31% of the median over five seeds). Centred blocks are also the
/// symmetric placements on which the engine-default Lanczos is known to
/// fail; the 6×6 one does on every seed.
HighresInstance highres_instance(std::uint64_t seed, std::size_t index) {
  Rng rng(seed, 0x41600000 + index);
  thermal::PackageGeometry g;
  g.tile_rows = kHighresGrid;
  g.tile_cols = kHighresGrid;
  thermal::StackSpec spec = thermal::StackSpec::single_die(g);
  spec.name = "highres-" + std::to_string(index);
  HighresInstance inst;
  inst.spec = std::make_shared<const thermal::StackSpec>(std::move(spec));

  const std::size_t n = kHighresGrid;
  const double total_w = rng.uniform(25.0, 35.0);
  const std::size_t hotspots = 1 + rng.below(3);
  std::vector<std::array<double, 4>> hs;  // row, col, radius, weight
  for (std::size_t h = 0; h < hotspots; ++h) {
    hs.push_back({rng.uniform(5.0, n - 5.0), rng.uniform(5.0, n - 5.0), rng.uniform(2.0, 6.0),
                  rng.uniform(1.0, 4.0)});
  }
  inst.powers = linalg::Vector(n * n);
  double sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      double v = 0.25;
      for (const auto& h : hs) {
        const double d2 = (r - h[0]) * (r - h[0]) + (c - h[1]) * (c - h[1]);
        v += h[3] * std::exp(-d2 / (2.0 * h[2] * h[2]));
      }
      inst.powers[r * n + c] = v;
      sum += v;
    }
  }
  inst.powers *= total_w / sum;

  inst.side = 2 + index % kHighresRound;
  inst.row = (n - inst.side) / 2;
  inst.col = inst.row;
  for (std::size_t k = 0; k < kHighresSolves; ++k) {
    inst.fractions.push_back(rng.uniform(0.0, 0.9));
  }
  return inst;
}

void run_highres_spec(const Options& o, Report& rep) {
  par::ThreadPool::set_global_threads(load_threads());
  // Timed work of the current instance: build, λ_m and solves (the
  // untimed Schur reference excluded).
  double analysis_s = 0.0;
  auto build = [&](const HighresInstance& inst) {
    std::unique_ptr<engine::SolveContext> ctx;
    const double dt = timed([&] {
      Span s("engine.SolveContext");
      ctx = std::make_unique<engine::SolveContext>(inst.spec, inst.mask(), inst.powers,
                                                   device());
      (void)ctx->system().cholesky_symbolic();
    });
    rep.sample("setup_s", dt);
    analysis_s = dt;
    return ctx;
  };
  for (std::size_t r = 0; r < kSetupReps; ++r) (void)build(highres_instance(o.seed, 0));
  open_window(o);

  std::optional<ProbeSystem> probe;
  auto run_instance = [&](std::size_t k) {
    Span inst_span("highres_instance", k + 1);
    const HighresInstance inst = highres_instance(o.seed, k);
    auto ctx = build(inst);

    // λ_m with the engine default (sparse Lanczos); typed failures are
    // counted with their input and the run carries on.
    std::optional<double> lambda;
    ++rep.attempted;
    rep.values["tec.runaway_attempts"] += 1;
    const auto t_lambda = Clock::now();
    try {
      {
        Span s("engine.SolveContext.runaway_limit");
        lambda = ctx->runaway_limit();
      }
      rep.sample("lambda_s", seconds_since(t_lambda));
      analysis_s += seconds_since(t_lambda);
    } catch (const linalg::LanczosNonConvergedError& e) {
      rep.sample("lambda_failed_s", seconds_since(t_lambda));
      analysis_s += seconds_since(t_lambda);
      rep.values["tec.runaway_failed"] += 1;
      JsonValue in = inst.describe(o.seed, k);
      in.set("iterations", JsonValue::make_number(double(e.iterations())));
      in.set("rel_residual", JsonValue::make_number(e.rel_residual()));
      rep.fail("LanczosNonConvergedError", in, e.what());
    }
    // The Schur reduction on every instance, untimed (~1.3 s each at 50×50
    // on a 4-vCPU Xeon VM): the cross-check wherever Lanczos succeeded, and
    // the λ_m that places the solve currents where it failed.
    std::optional<double> lambda_schur;
    {
      tec::RunawayOptions schur;
      schur.method = tec::RunawayMethod::kSchur;
      rep.sample("tec.runaway_schur_s", timed([&] {
                   Span s("tec.runaway_limit");
                   lambda_schur = tec::runaway_limit(ctx->system(), schur);
                 }));
      rep.check(lambda_schur.has_value(), "highres " + std::to_string(k) + ": no Schur λ_m");
      if (lambda && lambda_schur) {
        rep.check(rel_close(*lambda, *lambda_schur, 1e-8),
                  "highres " + std::to_string(k) +
                      ": sparse λ_m disagrees with Schur λ_m beyond 1e-8");
      }
    }
    const double lambda_ref = lambda ? *lambda : lambda_schur.value_or(0.0);
    rep.check(lambda_ref > 0.0, "highres " + std::to_string(k) + ": no λ_m to place currents");
    for (double f : inst.fractions) {
      const double i = f * lambda_ref;
      ++rep.attempted;
      std::optional<tec::OperatingPoint> op;
      const double dt = timed([&] {
        Span s("engine.SolveContext.solve");
        op = ctx->solve(i);
      });
      analysis_s += dt;
      if (!op) {
        rep.sample("solve_failed_s", dt);  // infinite latency in run.py
        rep.fail("solve:nullopt", inst.describe(o.seed, k),
                 "no solution at " + std::to_string(i) + " A < 0.9·λ_m");
        continue;
      }
      rep.sample("solve_s", dt);
      // Near λ_m the temperatures leave the audit's sanity band by design
      // of the sweep; the residual and energy-balance certificates must hold.
      const auto cert = ctx->audit(*op);
      const obs::health::Tolerances tol;
      rep.check(cert.rel_residual <= tol.max_rel_residual &&
                    cert.energy_balance_rel <= tol.max_energy_balance_rel,
                "highres " + std::to_string(k) + ": certificate failed at " +
                    std::to_string(i) + " A: " + cert.describe());
    }
    rep.sample("analysis_s", analysis_s);
    if (!probe) {
      probe = ProbeSystem{"highres-0", {}, inst.spec, inst.mask(), inst.powers,
                          inst.fractions.front() * lambda_ref, false};
    }
  };
  const std::size_t rounds = work_units(o.seconds, kHighresRoundS, 1);
  for (std::size_t k = 0; k < rounds * kHighresRound; ++k) run_instance(k);
  close_window(o, rep);
  if (o.trace && probe) layer_probe({*probe}, 2, rep);
}

// --- transient_dtm ----------------------------------------------------------

constexpr std::size_t kSimSteps = 2000;

struct TransientSetup {
  std::shared_ptr<const floorplan::Floorplan> alpha_plan;
  core::DesignResult alpha_design;
  linalg::Vector alpha_powers;
  std::shared_ptr<const thermal::StackSpec> dual;
  core::DesignResult dual_design;
  sim::ScenarioOptions options;
};

sim::ScenarioOptions transient_options(std::uint64_t seed) {
  Rng rng(seed, 0x7a000000);
  sim::ScenarioOptions opts;
  opts.benchmark = "bench" + std::to_string(rng.below(100));
  opts.workload.seed = rng.next();
  opts.steps = kSimSteps;
  opts.dtm = true;
  opts.policy.theta_limit = thermal::to_kelvin(rng.uniform(72.0, 78.0));
  return opts;
}

/// The CLI's simulate wiring: DTM current levels {0, I/2, I} at the design
/// current.
sim::ScenarioOptions with_levels(sim::ScenarioOptions opts, const core::DesignResult& d) {
  if (d.tec_count > 0 && d.current > 0.0) {
    opts.policy.current_levels = {0.0, 0.5 * d.current, d.current};
  }
  return opts;
}

TransientSetup transient_setup(std::uint64_t seed, Report& rep) {
  TransientSetup ts;
  ts.options = transient_options(seed);
  ts.alpha_plan = std::make_shared<const floorplan::Floorplan>(floorplan::alpha21364());
  ts.alpha_powers = synth_powers(*ts.alpha_plan, seed, 0);
  core::DesignRequest req;
  req.chip_name = "alpha";
  req.tile_powers = ts.alpha_powers;
  req.run_full_cover = false;
  std::vector<Attempt> attempts;
  ts.alpha_design = design_with_fallback(req, 85.0, attempts);
  rep.sample("io.spec_load_s", timed([&] {
               Span s("io.load_stack_spec");
               ts.dual = std::make_shared<const thermal::StackSpec>(
                   io::load_stack_spec("examples/dual_chip_shared_sink.json"));
             }));
  core::DesignRequest dreq;
  dreq.chip_name = ts.dual->name;
  dreq.spec = ts.dual;
  dreq.run_full_cover = false;
  attempts.clear();
  ts.dual_design = design_with_fallback(dreq, 85.0, attempts);
  return ts;
}

struct SimPair {
  std::unique_ptr<sim::ScenarioEngine> alpha, dual;
};

SimPair make_engines(const TransientSetup& ts) {
  Span s("sim.ScenarioEngine");
  SimPair p;
  p.alpha = std::make_unique<sim::ScenarioEngine>(
      *ts.alpha_plan, thermal::PackageGeometry{}, device(), ts.alpha_design.deployment,
      with_levels(ts.options, ts.alpha_design));
  p.dual = std::make_unique<sim::ScenarioEngine>(ts.dual, device(), ts.dual_design.deployment,
                                                 with_levels(ts.options, ts.dual_design));
  return p;
}

std::string summary_key(const sim::ScenarioSummary& a, const sim::ScenarioSummary& b) {
  return sim::summary_to_json(a).dump() + sim::summary_to_json(b).dump();
}

void run_transient_dtm(const Options& o, Report& rep) {
  par::ThreadPool::set_global_threads(load_threads());
  std::optional<TransientSetup> ts;
  SimPair engines;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    rep.sample("setup_s", timed([&] {
                 ts.emplace(transient_setup(o.seed, rep));
                 rep.sample("sim.setup_s", timed([&] { engines = make_engines(*ts); }));
                 // First run factorizes every current level the controller
                 // visits; the timed loop then steps numerically only.
                 (void)engines.alpha->run();
                 (void)engines.dual->run();
               }));
  }
  open_window(o);
  std::string first;
  std::uint64_t request = 0;
  const auto t_loop = Clock::now();
  do {
    Span span("scenario_pair", ++request);
    sim::ScenarioSummary a, b;
    ++rep.attempted;
    const double dt = timed([&] {
      {
        Span s("sim.ScenarioEngine.run");
        a = engines.alpha->run();
      }
      {
        Span s("sim.ScenarioEngine.run");
        b = engines.dual->run();
      }
    });
    rep.sample("pair_s", dt);
    rep.sample("steps", double(a.steps + b.steps));
    rep.sample("level_switches", double(a.current_up_actions + a.current_down_actions +
                                        b.current_up_actions + b.current_down_actions));
    const std::string key = summary_key(a, b);
    if (first.empty()) first = key;
    rep.check(key == first, "transient: scenario summary changed between identical runs");
  } while (seconds_since(t_loop) < o.seconds);
  close_window(o, rep);

  if (o.trace) {
    layer_probe({{"alpha", thermal::PackageGeometry{}, nullptr, ts->alpha_design.deployment,
                  ts->alpha_powers, ts->alpha_design.current, true},
                 {"dual", {}, ts->dual, ts->dual_design.deployment, ts->dual->tile_powers(),
                  ts->dual_design.current, true}},
                5, rep);
  }

  // The same scenario on one pool thread must reproduce the summaries.
  par::ThreadPool::set_global_threads(1);
  SimPair single = make_engines(*ts);
  const std::string one = summary_key(single.alpha->run(), single.dual->run());
  par::ThreadPool::set_global_threads(load_threads());
  rep.check(one == first, "transient: summary differs between 1 and " +
                              std::to_string(load_threads()) + " threads");
  rep.extra.set("summary", io::parse_json(first.substr(0, first.find("}{") + 1)));
}

// --- service_open -----------------------------------------------------------

const char* const kServiceChips[] = {"alpha", "hc1", "hc2", "hc3"};

/// Offered load, as shares of the capacity the run estimates from its own
/// back-to-back round trips (run_service_open): the nominal phase offers a
/// quarter of it for half the run, the ladder its multiples for three
/// tenths. The ladder stops at the first rate that misses the latency limit.
constexpr double kNominalLoad = 0.25;
const double kLadderLoad[] = {0.5, 0.75, 1.0, 1.25, 1.5};
constexpr double kLatencyLimitMs = 100.0;
/// Back-to-back solves (~2 s at ~500 solves/s), and back-to-back calls of
/// each other method of the mix, for the capacity estimate.
constexpr std::size_t kClosedLoopRequests = 1000;
constexpr std::size_t kCalibrationRequests = 10;

struct Scheduled {
  double at_s = 0.0;  ///< send time from the phase start
  std::size_t conn = 0;
  std::string method;
  std::size_t chip = 0;
  double fraction = 0.0;  ///< solve current as a multiple of the chip's I_opt
};

/// The request mix by position: 18 of every 20 are solves at seeded chips
/// and currents, one a 25-point sweep, one a runaway query, those two
/// rotating over the chips. A fixed mix (rather than a drawn one) keeps the
/// share of slow sweeps, and so the tail, the same on every seed. The
/// proportions are an assumption: no recorded request trace of the service
/// exists to take them from.
constexpr std::size_t kMixPeriod = 20;
const char* const kMixMethods[] = {"solve", "sweep", "runaway"};

const char* mix_method(std::size_t k) {
  return k % kMixPeriod == 7 ? "sweep" : k % kMixPeriod == 17 ? "runaway" : "solve";
}

std::size_t mix_chip(std::size_t k, Rng& rng) {
  const std::size_t chips = std::size(kServiceChips);
  return k % kMixPeriod == 7 || k % kMixPeriod == 17 ? (k / kMixPeriod) % chips
                                                    : rng.below(chips);
}

/// Poisson arrivals at \p rps for \p seconds over the warmed sessions: the
/// phase's seeded unit-rate stream, with its times scaled by 1 / \p rps.
std::vector<Scheduled> schedule(std::uint64_t seed, std::uint64_t phase, double rps,
                                double seconds, std::size_t conns) {
  Rng rng(seed, 0x5c000000 + phase);
  std::vector<Scheduled> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rps;
    if (t >= seconds) break;
    Scheduled s;
    s.at_s = t;
    s.conn = out.size() % conns;
    s.method = mix_method(out.size());
    s.chip = mix_chip(out.size(), rng);
    s.fraction = rng.uniform(0.0, 2.0);
    out.push_back(s);
  }
  return out;
}

/// Runs client threads to completion: a transport failure in any of them is
/// kept and rethrown after every thread has been joined.
class ClientThreads {
 public:
  template <class F>
  void spawn(F&& body) {
    threads_.emplace_back([this, body = std::forward<F>(body)]() mutable {
      try {
        body();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error_.empty()) error_ = e.what();
      }
    });
  }
  void join() {
    for (auto& t : threads_) t.join();
    threads_.clear();
    if (!error_.empty()) throw std::runtime_error("service client: " + error_);
  }
  ~ClientThreads() {
    for (auto& t : threads_) t.join();
  }

 private:
  std::mutex mutex_;
  std::string error_;
  std::vector<std::thread> threads_;
};

struct ServiceSessions {
  std::vector<double> design_current;  ///< I_opt per kServiceChips (warm-up replies)
  std::vector<double> lambda_m;        ///< λ_m per kServiceChips (warm-up replies)
};

JsonValue request_params(const std::string& method, std::size_t chip, double fraction,
                         const ServiceSessions& sessions);

struct Outcome {
  double sent_s = -1.0, done_s = -1.0;
  bool ok = false;
  std::string error;
  JsonValue result;
};

/// Replay \p plan open-loop over one pipelined connection per sender/reader
/// thread pair; latency counts from each request's scheduled time.
std::vector<Outcome> replay(const std::string& socket, const std::vector<Scheduled>& plan,
                            const ServiceSessions& sessions, std::size_t conns) {
  std::vector<Outcome> out(plan.size());
  std::vector<std::unique_ptr<svc::Client>> clients;
  for (std::size_t c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<svc::Client>(svc::Client::connect_unix(socket)));
    clients.back()->set_receive_timeout_ms(60000.0);
  }
  auto& recorder = tfbench::SpanRecorder::global();
  ClientThreads threads;
  const std::int64_t t0_ns = recorder.now_ns() + 20'000'000;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  auto since = [&] { return std::chrono::duration<double>(Clock::now() - t0).count(); };
  for (std::size_t c = 0; c < conns; ++c) {
    std::vector<std::size_t> mine;
    for (std::size_t k = 0; k < plan.size(); ++k) {
      if (plan[k].conn == c) mine.push_back(k);
    }
    threads.spawn([&, c, mine] {
      for (std::size_t k : mine) {
        const Scheduled& s = plan[k];
        std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(s.at_s)));
        JsonValue req = JsonValue::make_object();
        req.set("id", JsonValue::make_number(double(k)));
        req.set("method", JsonValue::make_string(s.method));
        req.set("params", request_params(s.method, s.chip, s.fraction, sessions));
        out[k].sent_s = since();
        clients[c]->send_raw(req.dump());
      }
    });
    threads.spawn([&, c, n = mine.size()] {
      for (std::size_t r = 0; r < n; ++r) {
        const std::string line = clients[c]->read_line();
        const double now = since();
        const JsonValue reply = io::parse_json(line);
        const double id = reply.at("id").as_number();
        if (!(id >= 0.0 && id < double(plan.size()))) {
          throw std::runtime_error("reply with unknown id: " + line);
        }
        const std::size_t k = std::size_t(id);
        out[k].done_s = now;
        out[k].ok = reply.bool_or("ok", false);
        if (out[k].ok) {
          out[k].result = reply.at("result");
        } else if (const JsonValue* e = reply.get("error")) {
          out[k].error = e->dump();
        }
      }
    });
  }
  threads.join();
  if (recorder.enabled()) {
    // One span per request, from send to reply, under the client call name.
    for (std::size_t k = 0; k < plan.size(); ++k) {
      tfbench::SpanRecord span;
      span.id = recorder.next_id();
      span.request = span.id;
      span.name = plan[k].method == "solve"   ? "svc.Client.solve"
                  : plan[k].method == "sweep" ? "svc.Client.sweep"
                                              : "svc.Client.runaway";
      span.start_ns = t0_ns + std::int64_t(out[k].sent_s * 1e9);
      span.end_ns = t0_ns + std::int64_t(out[k].done_s * 1e9);
      recorder.add(span);
    }
  }
  return out;
}

JsonValue request_params(const std::string& method, std::size_t chip, double fraction,
                         const ServiceSessions& sessions) {
  JsonValue params = JsonValue::make_object();
  params.set("chip", JsonValue::make_string(kServiceChips[chip]));
  if (method == "solve") {
    params.set("current", JsonValue::make_number(fraction * sessions.design_current[chip]));
  } else if (method == "sweep") {
    params.set("points", JsonValue::make_number(25));
  }
  return params;
}

/// Back to back from one client: \p requests calls of \p method at seeded
/// chips (solves also at seeded currents), each sent when the previous
/// reply arrives. Returns every round trip [s]; error replies are counted
/// as failed operations.
std::vector<double> back_to_back(const std::string& socket, std::uint64_t seed,
                                 std::size_t method, std::size_t requests,
                                 const ServiceSessions& sessions, Report& rep) {
  Rng rng(seed, 0x5a000000 + method);
  auto client = svc::Client::connect_unix(socket);
  std::vector<double> round_trip;
  for (std::size_t k = 0; k < requests; ++k) {
    const std::size_t chip = rng.below(std::size(kServiceChips));
    const JsonValue params = request_params(kMixMethods[method], chip, rng.uniform(0.0, 2.0),
                                            sessions);
    const auto t0 = Clock::now();
    const JsonValue reply = client.call(kMixMethods[method], params);
    round_trip.push_back(seconds_since(t0));
    ++rep.attempted;
    if (!reply.bool_or("ok", false)) {
      JsonValue in = JsonValue::make_object();
      in.set("seed", JsonValue::make_number(double(seed)));
      in.set("method", JsonValue::make_string(kMixMethods[method]));
      in.set("request", JsonValue::make_number(double(k)));
      rep.fail("svc:error_reply", in, reply.dump());
    }
  }
  return round_trip;
}

struct ServiceHarness {
  std::string socket;
  std::unique_ptr<svc::Server> server;
  std::thread serving;
  ServiceSessions sessions;

  ~ServiceHarness() { stop(); }
  void stop() {
    if (server) {
      server->request_stop();
      if (serving.joinable()) serving.join();
      server.reset();
    }
  }
};

/// Start a default-options server and warm one session per chip.
void service_start(ServiceHarness& h, const std::string& dir, std::size_t generation) {
  h.socket = dir + "/svc-" + std::to_string(::getpid()) + "-" + std::to_string(generation) +
             ".sock";
  svc::ServerOptions so;
  so.socket_path = h.socket;
  h.server = std::make_unique<svc::Server>(so);
  h.serving = std::thread([&h] { h.server->run(); });
  auto client = svc::Client::connect_unix(h.socket);
  h.sessions = {};
  for (const char* chip : kServiceChips) {
    JsonValue params = JsonValue::make_object();
    params.set("chip", JsonValue::make_string(chip));
    const JsonValue reply = client.call("solve", params);
    if (!reply.bool_or("ok", false)) {
      throw std::runtime_error(std::string("service warm-up failed for ") + chip + ": " +
                               reply.dump());
    }
    h.sessions.design_current.push_back(reply.at("result").at("current_a").as_number());
    h.sessions.lambda_m.push_back(reply.at("result").at("lambda_m_a").as_number());
  }
}

/// Direct reference for one chip's session: the same worst-case power, the
/// same θ-limit fallback design, and a SolveContext on its deployment.
struct DirectSession {
  linalg::Vector powers;
  std::unique_ptr<engine::SolveContext> ctx;
};

DirectSession direct_session(const std::string& chip) {
  const floorplan::Floorplan plan = chip_plan(chip);
  power::WorkloadSynthesizer synth(plan);
  const linalg::Vector powers =
      power::worst_case_profile(plan, synth.synthesize_suite(8)).tile_powers();
  core::DesignRequest req;
  req.chip_name = chip;
  req.tile_powers = powers;
  req.run_full_cover = false;
  std::vector<Attempt> attempts;
  const core::DesignResult d = design_with_fallback(req, 85.0, attempts);
  return {powers, std::make_unique<engine::SolveContext>(thermal::PackageGeometry{},
                                                         d.deployment, powers, device())};
}

void run_service_open(const Options& o, Report& rep) {
  par::ThreadPool::set_global_threads(load_threads());
  const std::size_t conns = load_threads();
  ServiceHarness h;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    h.stop();
    rep.sample("setup_s", timed([&] { service_start(h, o.work_dir, r); }));
  }
  open_window(o);

  auto account = [&](const std::vector<Scheduled>& plan, const std::vector<Outcome>& res,
                     const std::string& phase) {
    JsonValue rows = JsonValue::make_array();
    for (std::size_t k = 0; k < plan.size(); ++k) {
      JsonValue row = JsonValue::make_array();
      row.push_back(JsonValue::make_number(plan[k].at_s));
      row.push_back(JsonValue::make_number(res[k].sent_s));
      row.push_back(JsonValue::make_number(res[k].done_s));
      row.push_back(JsonValue::make_bool(res[k].ok));
      rows.push_back(std::move(row));
    }
    JsonValue ph = JsonValue::make_object();
    ph.set("phase", JsonValue::make_string(phase));
    ph.set("records", std::move(rows));
    return ph;
  };

  // Back-to-back round trips from one client, per method of the mix. The
  // solves' median gives the bounded rate (one over it). Over all
  // connections, with the sweeps of the mix, or taken as completions over
  // elapsed time (a sampled CG cross-check can stall a batch), that rate
  // swung by ±20% run to run on a 4-vCPU VM. The medians, weighted by the
  // mix, estimate the server's capacity: its workers over the mean cost of
  // one request. The offered rates are shares of that estimate, so the load
  // is the same share of capacity on every machine.
  std::vector<double> mix_cost_s(std::size(kMixMethods));
  for (std::size_t m = 0; m < std::size(kMixMethods); ++m) {
    std::vector<double> rtt =
        back_to_back(h.socket, o.seed, m, m == 0 ? kClosedLoopRequests : kCalibrationRequests,
                     h.sessions, rep);
    if (m == 0) {
      for (double t : rtt) rep.sample("closed_loop_s", t);
    }
    std::nth_element(rtt.begin(), rtt.begin() + rtt.size() / 2, rtt.end());
    mix_cost_s[m] = rtt[rtt.size() / 2];
  }
  double mean_cost_s = 0.0;
  for (std::size_t k = 0; k < kMixPeriod; ++k) {
    const std::string method = mix_method(k);
    for (std::size_t m = 0; m < std::size(kMixMethods); ++m) {
      if (method == kMixMethods[m]) mean_cost_s += mix_cost_s[m] / double(kMixPeriod);
    }
  }
  const double capacity_rps = double(svc::ServerOptions{}.workers) / mean_cost_s;
  const double nominal_rps = kNominalLoad * capacity_rps;

  const double nominal_s = 0.5 * o.seconds;
  const auto nominal = schedule(o.seed, 0, nominal_rps, nominal_s, conns);
  const auto nominal_out = replay(h.socket, nominal, h.sessions, conns);
  JsonValue phases = JsonValue::make_array();
  phases.push_back(account(nominal, nominal_out, "nominal"));
  for (std::size_t k = 0; k < nominal.size(); ++k) {
    ++rep.attempted;
    if (!nominal_out[k].ok) {
      JsonValue in = JsonValue::make_object();
      in.set("seed", JsonValue::make_number(double(o.seed)));
      in.set("request", JsonValue::make_number(double(k)));
      in.set("method", JsonValue::make_string(nominal[k].method));
      rep.fail("svc:error_reply", in, nominal_out[k].error);
    }
  }

  const double ladder_s = 0.3 * o.seconds / double(std::size(kLadderLoad));
  for (std::size_t r = 0; r < std::size(kLadderLoad); ++r) {
    const double rps = kLadderLoad[r] * capacity_rps;
    const auto plan = schedule(o.seed, r + 1, rps, ladder_s, conns);
    const auto res = replay(h.socket, plan, h.sessions, conns);
    JsonValue ph = account(plan, res, "ladder");
    ph.set("rps", JsonValue::make_number(rps));
    phases.push_back(ph);
    std::vector<double> lat;
    bool all_ok = true;
    for (std::size_t k = 0; k < plan.size(); ++k) {
      all_ok = all_ok && res[k].ok;
      lat.push_back(res[k].ok ? res[k].done_s - plan[k].at_s : 1e9);
    }
    std::sort(lat.begin(), lat.end());
    // Stop once the rung clearly misses the limit; further rungs only
    // deepen the overload.
    if (!all_ok || (lat.size() > 10 && lat[lat.size() - 11] * 1e3 > kLatencyLimitMs)) break;
  }
  rep.extra.set("phases", phases);
  rep.values["latency_limit_ms"] = kLatencyLimitMs;
  rep.values["nominal_rps"] = nominal_rps;
  rep.values["capacity_rps"] = capacity_rps;
  close_window(o, rep);

  // Replies must match a direct SolveContext::solve on the same session
  // inputs (every solve of the nominal phase, per chip).
  std::vector<DirectSession> direct;
  for (const char* chip : kServiceChips) direct.push_back(direct_session(chip));
  std::size_t compared = 0;
  for (std::size_t k = 0; k < nominal.size(); ++k) {
    if (!nominal_out[k].ok || nominal[k].method != "solve") continue;
    const JsonValue& res = nominal_out[k].result;
    const double i = res.at("current_a").as_number();
    const auto op = direct[nominal[k].chip].ctx->solve(i);
    ++compared;
    rep.check(op.has_value() &&
                  rel_close(thermal::to_celsius(op->peak_tile_temperature),
                            res.at("peak_celsius").as_number(), 1e-12) &&
                  rel_close(op->tec_input_power, res.at("tec_power_w").as_number(), 1e-12),
              std::string("service: solve reply differs from direct solve for ") +
                  kServiceChips[nominal[k].chip] + " at " + std::to_string(i) + " A");
  }
  rep.check(compared > 0, "service: no solve replies to compare");

  if (o.trace) {
    std::vector<ProbeSystem> probes;
    for (std::size_t c = 0; c < direct.size(); ++c) {
      probes.push_back({kServiceChips[c], thermal::PackageGeometry{}, nullptr,
                        direct[c].ctx->deployment(), direct[c].powers,
                        h.sessions.design_current[c], true});
    }
    layer_probe(probes, 5, rep);
  }
  h.stop();
  std::remove(h.socket.c_str());
}

// --- input digests ----------------------------------------------------------

std::string input_digest(const Options& o) {
  Digest d;
  d.str(o.workload);
  if (o.workload == "design_table1") {
    for (std::size_t c = 0; c < std::size(kTable1Chips); ++c) {
      const floorplan::Floorplan plan = chip_plan(kTable1Chips[c]);
      for (const auto& trace : synth_suite(plan, o.seed, c)) {
        for (const auto& unit : trace.utilization) d.vec(linalg::Vector(unit));
      }
      d.vec(synth_powers(plan, o.seed, c));
    }
  } else if (o.workload == "highres_spec") {
    for (std::size_t k = 0; k < 8; ++k) {
      const auto inst = highres_instance(o.seed, k);
      d.str(io::spec_content_hash(*inst.spec));
      d.vec(inst.powers);
      d.num(std::uint64_t(inst.side * 10000 + inst.row * 100 + inst.col));
      for (double f : inst.fractions) d.num(f);
    }
  } else if (o.workload == "transient_dtm") {
    const auto opts = transient_options(o.seed);
    d.str(opts.benchmark);
    d.num(opts.workload.seed);
    d.num(opts.policy.theta_limit);
    d.num(std::uint64_t(opts.steps));
    d.vec(synth_powers(floorplan::alpha21364(), o.seed, 0));
  } else if (o.workload == "service_open") {
    // The unit-rate streams; a run scales their times to its offered rates.
    for (std::size_t phase = 0; phase <= std::size(kLadderLoad); ++phase) {
      for (const auto& s : schedule(o.seed, phase, 1.0, 300.0, 4)) {
        d.num(s.at_s);
        d.num(std::uint64_t(s.conn));
        d.str(s.method);
        d.num(std::uint64_t(s.chip));
        d.num(s.fraction);
      }
    }
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  return d.hex();
}

// --- output -----------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

JsonValue numbers(const std::vector<double>& v) {
  JsonValue a = JsonValue::make_array();
  for (double x : v) a.push_back(JsonValue::make_number(x));
  return a;
}

JsonValue spans_json() {
  JsonValue a = JsonValue::make_array();
  for (const auto& s : tfbench::SpanRecorder::global().spans()) {
    JsonValue row = JsonValue::make_array();
    row.push_back(JsonValue::make_number(double(s.id)));
    row.push_back(JsonValue::make_number(double(s.parent)));
    row.push_back(JsonValue::make_number(double(s.request)));
    row.push_back(JsonValue::make_string(s.name));
    row.push_back(JsonValue::make_number(double(s.start_ns)));
    row.push_back(JsonValue::make_number(double(s.end_ns)));
    a.push_back(std::move(row));
  }
  return a;
}

JsonValue to_json(const Options& o, const Report& rep, double wall_s) {
  JsonValue doc = JsonValue::make_object();
  doc.set("workload", JsonValue::make_string(o.workload));
  doc.set("seed", JsonValue::make_number(double(o.seed)));
  doc.set("trace", JsonValue::make_bool(o.trace));
  doc.set("wall_s", JsonValue::make_number(wall_s));
  JsonValue fp = JsonValue::make_object();
  fp.set("hardware_threads", JsonValue::make_number(double(hardware_threads())));
  fp.set("load_threads", JsonValue::make_number(double(load_threads())));
  fp.set("cpu_model", JsonValue::make_string(cpu_model()));
  fp.set("build_type", JsonValue::make_string(TFC_BUILD_TYPE));
  fp.set("compiler", JsonValue::make_string(TFC_BUILD_COMPILER));
  doc.set("fingerprint", fp);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  doc.set("peak_rss_mb", JsonValue::make_number(double(ru.ru_maxrss) / 1024.0));
  doc.set("attempted", JsonValue::make_number(double(rep.attempted)));
  doc.set("failed", JsonValue::make_number(double(rep.failed)));
  JsonValue samples = JsonValue::make_object();
  for (const auto& [k, v] : rep.samples) samples.set(k, numbers(v));
  doc.set("samples", samples);
  JsonValue values = JsonValue::make_object();
  for (const auto& [k, v] : rep.values) values.set(k, JsonValue::make_number(v));
  doc.set("values", values);
  doc.set("failures", JsonValue::make_array(rep.failures));
  JsonValue errs = JsonValue::make_array();
  for (const auto& e : rep.check_errors) errs.push_back(JsonValue::make_string(e));
  doc.set("check_errors", errs);
  doc.set("extra", rep.extra);
  if (o.trace) doc.set("spans", spans_json());
  return doc;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int k = 1; k < argc; ++k) {
    const std::string a = argv[k];
    auto value = [&]() -> std::string {
      if (k + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++k];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--hash-inputs") {
      o.hash_inputs = true;
    } else if (a == "--out") {
      o.out = value();
      const auto slash = o.out.rfind('/');
      if (slash != std::string::npos) o.work_dir = o.out.substr(0, slash);
    } else {
      throw std::invalid_argument("unknown argument '" + a + "'");
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_args(argc, argv);
    if (o.hash_inputs) {
      std::cout << input_digest(o) << "\n";
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "tfbench: " << e.what() << "\n";
    return 2;
  }
  if (o.trace) tfbench::SpanRecorder::global().enable();
  // Engine audit WARNs are counted through engine.audit.* instead.
  obs::Logger::global().set_level(obs::Level::kError);

  Report rep;
  const auto t0 = Clock::now();
  try {
    Span root("workload", 0);
    if (o.workload == "design_table1") {
      run_design_table1(o, rep);
    } else if (o.workload == "highres_spec") {
      run_highres_spec(o, rep);
    } else if (o.workload == "transient_dtm") {
      run_transient_dtm(o, rep);
    } else if (o.workload == "service_open") {
      run_service_open(o, rep);
    } else {
      std::cerr << "tfbench: unknown workload '" << o.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "tfbench: workload aborted: " << e.what() << "\n";
    return 1;
  }
  const std::string doc = to_json(o, rep, seconds_since(t0)).dump();
  if (o.out.empty()) {
    std::cout << doc << "\n";
  } else {
    std::ofstream f(o.out);
    f << doc << "\n";
    if (!f) {
      std::cerr << "tfbench: cannot write " << o.out << "\n";
      return 2;
    }
  }
  return 0;
}
