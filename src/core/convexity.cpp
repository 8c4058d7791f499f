#include "core/convexity.h"

#include <limits>
#include <stdexcept>

#include "core/response.h"
#include "tec/runaway.h"

namespace tfc::core {

ConvexityCertificate certify_convexity(const tec::ElectroThermalSystem& system,
                                       const ConvexityOptions& options) {
  if (system.device_count() == 0) {
    throw std::invalid_argument("certify_convexity: system has no TEC devices");
  }
  if (options.subintervals == 0 || options.samples_per_interval < 2 ||
      !(options.lambda_fraction > 0.0 && options.lambda_fraction < 1.0)) {
    throw std::invalid_argument("certify_convexity: bad options");
  }

  // λ_m from the exact block eigensolve: the certificate's interval must not
  // hinge on an iterative eigensolver's convergence (sparse Lanczos fails on
  // symmetric TEC placements such as the dual-chip example's).
  auto lm = tec::runaway_limit(system, tec::RunawayOptions{tec::RunawayMethod::kSchur});
  if (!lm) {
    throw std::runtime_error("certify_convexity: no finite runaway limit");
  }

  ConvexityCertificate cert;
  cert.lambda_m = *lm;
  cert.certified = true;
  cert.min_functional = std::numeric_limits<double>::infinity();

  const auto& model = system.model();
  const double r = system.device().resistance;
  const double hi = options.lambda_fraction * *lm;
  const double dt = hi / double(options.subintervals);

  // Tile functional: the tile's silicon injection node.
  const auto& tile_nodes = model.silicon_nodes();

  for (std::size_t seg = 0; seg < options.subintervals; ++seg) {
    const double it_lo = double(seg) * dt;
    const double it_hi = it_lo + dt;

    // η′(i_t): the constant lower bound of η′ on the subinterval.
    auto eval_lo = ResponseEvaluator::at(system, it_lo);
    if (!eval_lo) throw std::runtime_error("certify_convexity: factorization failed");
    ResponseSample lo = eval_lo->sample();
    cert.solves += 3;

    for (std::size_t s = 0; s < options.samples_per_interval; ++s) {
      const double i = it_lo + (it_hi - it_lo) * double(s) /
                                   double(options.samples_per_interval - 1);
      linalg::Vector eta_i;
      if (s == 0) {
        eta_i = lo.eta;
      } else {
        // Only η(i) is needed at interior samples: one factorization + solve.
        auto eval = ResponseEvaluator::at(system, i);
        if (!eval) throw std::runtime_error("certify_convexity: factorization failed");
        eta_i = eval->eta();
        cert.solves += 1;
      }

      for (std::size_t t = 0; t < tile_nodes.size(); ++t) {
        const std::size_t k = tile_nodes[t];
        const double phi = r * eta_i[k] + r * lo.eta_prime[k] * i;
        if (phi < cert.min_functional) {
          cert.min_functional = phi;
          cert.worst_tile = t;
          cert.worst_current = i;
        }
        if (phi < 0.0) cert.certified = false;
      }
    }
  }
  return cert;
}

}  // namespace tfc::core
