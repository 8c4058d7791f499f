/// \file solve_context.h
/// \brief tfc::engine::SolveContext — the one object behind every
/// steady-state solve in the library.
///
/// A SolveContext owns the assembled tec::ElectroThermalSystem for one
/// deployment, the shared symbolic Cholesky analysis, the cached runaway
/// limit λ_m, the lazily built spectral TEC-block model (tec/block_model.h)
/// and a pool of preallocated solve workspaces (pencil, factor, rhs/θ
/// buffers), so the current-probe hot path of Problem 2 runs with zero
/// allocations. Deployments only ever grow during greedy deployment
/// (Figure 5), so extend() re-stamps the package network incrementally
/// (PackageModel::extend_tec) instead of re-deriving every conductance from
/// geometry — bit-identical to a from-scratch assembly, asserted in Debug.
///
/// Point solves dispatch over the runtime-selected thermal::Backend.
/// probe_peak — the design search's objective — runs on the block model
/// whenever the TEC block is at most kMaxReducedBlock rows, and on the
/// direct sparse factorization otherwise; solve_probe (the design's
/// read-back) always refactors.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/tile.h"
#include "engine/backend.h"
#include "linalg/vector.h"
#include "tec/block_model.h"
#include "tec/electro_thermal.h"
#include "tec/runaway.h"
#include "thermal/package.h"
#include "thermal/stack_spec.h"

namespace tfc::engine {

/// Reusable solve engine for one (growing) deployment.
///
/// Thread model: probe_peak / solve_probe / solve / runaway_limit are const
/// and safe to call concurrently (the tfc::par candidate probes). extend()
/// and set_deployment() mutate the context and must not race any solve.
class SolveContext {
 public:
  /// Largest TEC block (2 × hot nodes) probe_peak reduces. The model's cost
  /// beyond the λ_m eigenvalues the design needs anyway grows as (2m)³,
  /// against the ~50 refactorizations it saves per section search; in
  /// Release on one thread it is ≈ 27 Table-I refactorizations at
  /// 2m = 288 (full cover) and ≤ 11 refactorizations of a 24×24 package up
  /// to 2m = 648.
  static constexpr std::size_t kMaxReducedBlock = 512;

  /// Assemble the system for \p deployment (may be empty) on the single-die
  /// package \p geometry with \p tile_powers installed; same as the spec
  /// constructor on StackSpec::single_die(geometry).
  SolveContext(const thermal::PackageGeometry& geometry, const TileMask& deployment,
               const linalg::Vector& tile_powers, const tec::TecDeviceParams& device,
               EngineOptions options = {}, std::size_t stages = 1);

  /// Assemble from a declarative StackSpec. The mask and \p tile_powers
  /// address the spec's virtual tile grid.
  SolveContext(std::shared_ptr<const thermal::StackSpec> spec, const TileMask& deployment,
               const linalg::Vector& tile_powers, const tec::TecDeviceParams& device,
               EngineOptions options = {}, std::size_t stages = 1);

  /// Adopt an already-assembled system (keeps its model, powers and the
  /// shared symbolic-analysis cache).
  explicit SolveContext(tec::ElectroThermalSystem system, EngineOptions options = {});

  const tec::ElectroThermalSystem& system() const { return system_; }
  const EngineOptions& options() const { return options_; }
  const TileMask& deployment() const { return system_.model().deployment(); }
  std::size_t device_count() const { return system_.device_count(); }

  /// The StackSpec this context rebuilds from (never null).
  const std::shared_ptr<const thermal::StackSpec>& spec() const {
    return system_.model().spec();
  }

  /// Grow the deployment by \p tiles (tiles already deployed are ignored; a
  /// fully covered \p tiles is a no-op). The purely additive delta is
  /// re-stamped incrementally when options().incremental_restamp is on
  /// (metric engine.restamp.incremental), otherwise the model is rebuilt
  /// from the spec (engine.restamp.full). Invalidates the λ_m cache and the
  /// block model.
  void extend(const TileMask& tiles);

  /// Move to an arbitrary \p deployment: additive supersets of the current
  /// deployment go through extend(); anything else (a removed tile — not an
  /// additive delta) falls back to a full rebuild from the spec.
  void set_deployment(const TileMask& deployment);

  /// Zero-allocation positive-definiteness + peak-temperature probe at
  /// current \p i: nullopt when G − i·D is not positive definite
  /// (i ≥ λ_m) or i < 0, else the peak silicon tile temperature [K]. The
  /// Problem 2 objective. Runs on the block model (built on first use,
  /// O(tiles·2m) per probe, counter engine.probe.reduced) when the TEC block
  /// has at most kMaxReducedBlock rows, else on the direct sparse
  /// refactorization. The two agree to ~1e-11 relative.
  std::optional<double> probe_peak(double i) const;

  /// probe_peak through the direct sparse refactorization, whatever the
  /// block size: the reference the block-model probe is a surrogate of
  /// (core::section_search breaks its near-ties with it).
  std::optional<double> refactor_peak(double i) const;

  /// Full operating point via the direct sparse refactorization
  /// (workspace-pooled): the certified read-back behind every design
  /// result.
  std::optional<tec::OperatingPoint> solve_probe(double i) const;

  /// Point solve dispatched over options().backend. CG reports loss of
  /// positive definiteness through iteration breakdown (p·Ap ≤ 0) or a
  /// non-positive pencil diagonal. All backends return nullopt when G − i·D
  /// is not positive definite or i < 0. CG throws CgNonConvergedError when
  /// the iteration cap is hit on a solvable system (never a silent bad θ).
  std::optional<tec::OperatingPoint> solve(double i) const;

  /// Point solve with an explicit backend, ignoring options().backend — the
  /// service's sampled cross-check path (solve with a second backend, compare
  /// θ). Same semantics as solve().
  std::optional<tec::OperatingPoint> solve_backend(thermal::Backend backend,
                                                   double i) const;

  /// Physics certificate of \p op (see engine/audit.h), recorded into the
  /// engine.audit.* metrics. Uses the *cached* runaway limit when present —
  /// never triggers the eigensolve. Safe to call concurrently.
  obs::health::Certificate audit(const tec::OperatingPoint& op) const;

  /// The cached λ_m if any runaway_limit() call already computed one;
  /// nullopt when the cache is cold (the audit's non-blocking peek).
  std::optional<double> cached_runaway_limit() const;

  /// The method that actually produced the cached λ_m preferred by
  /// cached_runaway_limit() (the sparse request may have fallen back to
  /// Schur); nullopt when the cache is cold. Recorded into the auditor's
  /// λ_m-margin certificates.
  std::optional<tec::RunawayMethod> cached_runaway_method() const;

  /// Runaway limit λ_m of the current deployment with the context's own
  /// options().runaway (nullopt: none). Cached; invalidated by
  /// extend()/set_deployment(). Sparse computations draw their Lanczos
  /// scratch from the pooled workspaces (engine.runaway.* counters); kSchur
  /// reads λ_m off the block model probe_peak uses (bit-identical to
  /// tec::runaway_limit with kSchur).
  std::optional<double> runaway_limit() const;

  /// As above with explicit options, cached per
  /// (method, rel_tol, sparse_rel_tol).
  std::optional<double> runaway_limit(const tec::RunawayOptions& opts) const;

  /// RAII lease of a pooled tec::SolveWorkspace (exposed for callers that
  /// drive ElectroThermalSystem directly, e.g. sensitivity sweeps).
  class WorkspaceLease {
   public:
    explicit WorkspaceLease(const SolveContext& ctx)
        : ctx_(&ctx), ws_(ctx.acquire_workspace()) {}
    ~WorkspaceLease() {
      if (ws_ != nullptr) ctx_->release_workspace(ws_);
    }
    WorkspaceLease(const WorkspaceLease&) = delete;
    WorkspaceLease& operator=(const WorkspaceLease&) = delete;

    tec::SolveWorkspace& operator*() const { return *ws_; }
    tec::SolveWorkspace* operator->() const { return ws_; }
    tec::SolveWorkspace* get() const { return ws_; }

   private:
    const SolveContext* ctx_;
    tec::SolveWorkspace* ws_;
  };

 private:
  friend class WorkspaceLease;

  tec::SolveWorkspace* acquire_workspace() const;
  void release_workspace(tec::SolveWorkspace* ws) const;

  /// Full rebuild from the spec (the non-incremental path).
  void rebuild(const TileMask& deployment);
  /// Drop every per-deployment cache: λ_m entries and the block model.
  void invalidate_caches();

  /// True when probe_peak runs on the block model.
  bool reduced_probes() const;

  /// The block model of the current deployment, built on first use.
  const tec::TecBlockModel& block_model() const;

  /// cached_runaway_method() as a stable name, nullptr when cold — the
  /// lambda_method the auditor stamps on its certificates.
  const char* cached_runaway_method_name() const;

  std::optional<tec::OperatingPoint> solve_cg(double i) const;

  /// Sampled audit hook on the point-solve paths: every options().audit
  /// .sample_every-th solve gets a certificate (the counter starts at zero,
  /// so the first solve is always audited).
  void maybe_audit(const tec::OperatingPoint& op) const;

  EngineOptions options_;
  tec::ElectroThermalSystem system_;

  // Workspace pool: all_ owns, free_ lists the idle ones. The lock guards
  // list manipulation only — solves run outside it.
  mutable std::mutex ws_mutex_;
  mutable std::vector<std::unique_ptr<tec::SolveWorkspace>> ws_all_;
  mutable std::vector<tec::SolveWorkspace*> ws_free_;

  // λ_m cache keyed on the runaway options (the deployment is implicit:
  // extend() invalidates). Each entry remembers the method that actually
  // ran — the sparse request may have fallen back to Schur — for the
  // auditor's certificates.
  struct RunawayCacheEntry {
    std::tuple<int, double, double> key;  // (method, rel_tol, sparse_rel_tol)
    std::optional<double> lambda_m;
    tec::RunawayMethod method_used = tec::RunawayMethod::kSchur;
  };
  mutable std::mutex runaway_mutex_;
  mutable std::vector<RunawayCacheEntry> runaway_cache_;

  // Block model, built once per deployment (call_once); extend() and
  // set_deployment() replace the holder, and never race a probe.
  struct BlockModelCache {
    std::once_flag once;
    std::unique_ptr<const tec::TecBlockModel> model;
  };
  mutable std::unique_ptr<BlockModelCache> block_ = std::make_unique<BlockModelCache>();

  // Audit sampling tick (relaxed — sampling needs no ordering).
  mutable std::atomic<std::uint64_t> audit_seq_{0};
};

}  // namespace tfc::engine
