/// \file runaway.h
/// \brief Thermal-runaway limit λ_m of the coupled system (Theorem 1/2).
///
/// λ_m = min{θᵀGθ : θᵀDθ = 1} is the supply current at which G − i·D loses
/// positive definiteness: Peltier pumping is fully offset by ohmic heating
/// and back-conduction, the coefficient of performance hits zero, and every
/// entry of (G − i·D)⁻¹ diverges — the chip overheats without bound in the
/// steady-state model.
///
/// Three computations are provided:
///  - paper-faithful binary search with a Cholesky positive-definiteness
///    probe on the full matrix (Section V.C.1, O(n³) per probe);
///  - an exact reduction onto the TEC nodes (tec/block_model.h): G − i·D
///    differs from G only on the 2m hot/cold rows, so PD(G − i·D) ⇔
///    PD(S₀ − i·D_T) where S₀ = H⁻¹, H = Uᵀ·G⁻¹·U, is the
///    (current-independent!) Schur complement of G on the TEC block. One
///    numeric factorization of G through the shared symbolic analysis, 2m
///    column solves and one 2m×2m symmetric eigensolve give
///    λ_m = 1/max μ(Rᵀ·D_T·R), H = R·Rᵀ, exactly — no bisection. The design
///    search (engine::SolveContext) gets the same λ_m from the probe model it
///    builds for the deployment anyway;
///  - a sparse shift-invert Lanczos on the pencil (G, D) itself
///    (linalg::ShiftInvertLanczos, the default): one sparse factorization
///    through the system's shared symbolic analysis plus ≤ rank(D)+1
///    triangular-solve iterations, residual-certified. No dense matrix is
///    ever formed, so it is the only method that scales past the paper's
///    12×12 grid.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "linalg/lanczos.h"
#include "tec/electro_thermal.h"

namespace tfc::tec {

/// How to compute λ_m.
enum class RunawayMethod {
  kSchur,        ///< exact reduction onto the TEC block (block eigensolve)
  kDenseBisect,  ///< paper-faithful full-matrix binary search (test oracle)
  kSparse,       ///< sparse shift-invert Lanczos, default
};

/// Stable lower-case name ("sparse", "schur", "dense") for CLI/JSON/metrics.
const char* runaway_method_name(RunawayMethod method);

/// Parse a runaway_method_name() string; nullopt for anything else.
std::optional<RunawayMethod> parse_runaway_method(std::string_view name);

/// "sparse|schur|dense" — for CLI help and error messages.
const char* runaway_method_list();

struct RunawayOptions {
  RunawayMethod method = RunawayMethod::kSparse;
  /// Bisection relative tolerance (dense method).
  double rel_tol = 1e-10;
  /// Residual certificate of the sparse Lanczos method:
  /// ‖G·v − λ·D·v‖₂ ≤ sparse_rel_tol·‖G·v‖₂.
  double sparse_rel_tol = 1e-9;
  /// The sparse method falls back to the Schur reduction below this many
  /// devices — the reduced block is then 2–4 rows and beats any sparse
  /// machinery.
  std::size_t sparse_min_devices = 2;
};

/// λ_m plus how it was obtained (the sparse method may fall back to Schur
/// for tiny TEC sets — method_used records what actually ran).
struct RunawayResult {
  std::optional<double> lambda_m;
  RunawayMethod method_used = RunawayMethod::kSchur;
  /// Lanczos steps taken (0 for the other methods).
  std::size_t iterations = 0;
};

/// Compute λ_m for the system. Returns nullopt when no finite limit exists
/// (no TEC deployed, or D has no positive direction). Throws
/// std::runtime_error if G itself is not positive definite.
std::optional<double> runaway_limit(const ElectroThermalSystem& system,
                                    const RunawayOptions& options = {});

/// As runaway_limit(), additionally reporting the method that actually ran
/// and the Lanczos iteration count. \p ws, when given, supplies the Lanczos
/// scratch (a pooled tec::SolveWorkspace::lanczos — zero allocations once
/// warm); the sparse method allocates its own otherwise.
RunawayResult runaway_limit_ex(const ElectroThermalSystem& system,
                               const RunawayOptions& options = {},
                               linalg::ShiftInvertLanczosWorkspace* ws = nullptr);

/// The current-independent Schur complement S₀ = H⁻¹ of G on the TEC
/// (hot ∪ cold) block, plus the matching diagonal of D. Exposed for
/// diagnostics and tests; λ_m itself never forms S₀.
struct SchurReduction {
  linalg::DenseMatrix s0;       ///< m×m, m = 2·#devices
  linalg::Vector d_diag;        ///< ±α per reduced row
  std::vector<std::size_t> tec_nodes;  ///< original node indices, hot then cold
};

/// Build the reduction. Throws std::invalid_argument when no TECs exist,
/// std::runtime_error when G is not positive definite.
SchurReduction schur_reduction(const ElectroThermalSystem& system);

}  // namespace tfc::tec
