#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/cholesky.h"
#include "obs/obs.h"

namespace tfc::linalg {

std::vector<double> jacobi_eigenvalues(const DenseMatrix& a_in, double tol,
                                       std::size_t max_sweeps) {
  if (!a_in.square()) throw std::invalid_argument("jacobi_eigenvalues: matrix not square");
  DenseMatrix a = a_in;
  const std::size_t n = a.rows();
  const double scale = std::max(a.frobenius_norm(), 1e-300);

  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) off += a(p, q) * a(p, q);
    }
    if (std::sqrt(off) <= tol * scale) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= tol * scale / (n * n)) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
      }
    }
  }
  std::vector<double> evals(n);
  for (std::size_t i = 0; i < n; ++i) evals[i] = a(i, i);
  std::sort(evals.begin(), evals.end());
  return evals;
}

SymmetricEigen symmetric_eigen(const DenseMatrix& a, bool vectors) {
  if (!a.square()) throw std::invalid_argument("symmetric_eigen: matrix not square");
  const std::size_t n = a.rows();
  SymmetricEigen out;
  if (n == 0) return out;

  // Working matrix V, stored column-major (V(r, c) = v[c·n + r]) so that
  // every O(n³) loop below — Householder updates, the back-accumulation and
  // the QL rotations — walks a column contiguously.
  DenseMatrix work(n, n);
  double* const v = &work(0, 0);
  const auto V = [v, n](std::size_t r, std::size_t c) -> double& { return v[c * n + r]; };
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c <= r; ++c) V(r, c) = V(c, r) = a(r, c);
  }
  std::vector<double> d(n), e(n);

  // tred2: Householder reduction to tridiagonal form (diagonal d,
  // subdiagonal e), reflectors kept in V.
  for (std::size_t j = 0; j < n; ++j) d[j] = V(n - 1, j);
  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = V(i - 1, j);
        V(i, j) = 0.0;
        V(j, i) = 0.0;
      }
    } else {
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        V(j, i) = f;
        g = e[j] + V(j, j) * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += V(k, j) * d[k];
          e[k] += V(k, j) * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k < i; ++k) V(k, j) -= f * e[k] + g * d[k];
        d[j] = V(i - 1, j);
        V(i, j) = 0.0;
      }
    }
    d[i] = h;
  }
  if (vectors) {
    // Accumulate the reflectors into the orthogonal basis.
    for (std::size_t i = 0; i + 1 < n; ++i) {
      V(n - 1, i) = V(i, i);
      V(i, i) = 1.0;
      const double h = d[i + 1];
      if (h != 0.0) {
        for (std::size_t k = 0; k <= i; ++k) d[k] = V(k, i + 1) / h;
        for (std::size_t j = 0; j <= i; ++j) {
          double g = 0.0;
          for (std::size_t k = 0; k <= i; ++k) g += V(k, i + 1) * V(k, j);
          for (std::size_t k = 0; k <= i; ++k) V(k, j) -= g * d[k];
        }
      }
      for (std::size_t k = 0; k <= i; ++k) V(k, i + 1) = 0.0;
    }
    for (std::size_t j = 0; j < n; ++j) {
      d[j] = V(n - 1, j);
      V(n - 1, j) = 0.0;
    }
    V(n - 1, n - 1) = 1.0;
  } else {
    // The accumulation above only relays the diagonal through row n − 1.
    for (std::size_t j = 0; j < n; ++j) d[j] = V(j, j);
  }
  e[0] = 0.0;

  // tql2: implicit QL with Wilkinson shifts on the tridiagonal (d, e).
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  constexpr std::size_t kMaxSweeps = 30;
  double f = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    std::size_t m = l;
    while (m < n - 1 && std::abs(e[m]) > kEps * tst1) ++m;
    if (m > l) {
      std::size_t sweeps = 0;
      do {
        if (++sweeps > kMaxSweeps) {
          throw std::runtime_error("symmetric_eigen: QL iteration did not converge");
        }
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0.0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        p = d[m];
        double c = 1.0, c2 = 1.0, c3 = 1.0;
        const double el1 = e[l + 1];
        double s = 0.0, s2 = 0.0;
        for (std::size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          if (vectors) {
            double* vi = &V(0, i);
            double* vi1 = &V(0, i + 1);
            for (std::size_t k = 0; k < n; ++k) {
              const double t = vi1[k];
              vi1[k] = s * vi[k] + c * t;
              vi[k] = c * vi[k] - s * t;
            }
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > kEps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }

  // Ascending order; ties keep their QL position (deterministic).
  std::vector<std::size_t> order(n);
  for (std::size_t k = 0; k < n; ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&d](std::size_t x, std::size_t y) { return d[x] < d[y]; });
  out.values.resize(n);
  for (std::size_t k = 0; k < n; ++k) out.values[k] = d[order[k]];
  if (vectors) {
    // Sort the columns of V in place (cycle by cycle, one column of
    // scratch), then transpose in place: `work` becomes Q, row-major.
    std::vector<double> held(n);
    std::vector<bool> placed(n, false);
    for (std::size_t start = 0; start < n; ++start) {
      if (placed[start] || order[start] == start) continue;
      std::copy(v + start * n, v + (start + 1) * n, held.begin());
      std::size_t k = start;
      while (order[k] != start) {
        std::copy(v + order[k] * n, v + (order[k] + 1) * n, v + k * n);
        placed[k] = true;
        k = order[k];
      }
      std::copy(held.begin(), held.end(), v + k * n);
      placed[k] = true;
    }
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = r + 1; c < n; ++c) std::swap(v[r * n + c], v[c * n + r]);
    }
    out.vectors = std::move(work);
  }
  return out;
}

PowerIterationResult power_iteration(const DenseMatrix& a, std::size_t max_iterations,
                                     double tol) {
  if (!a.square()) throw std::invalid_argument("power_iteration: matrix not square");
  const std::size_t n = a.rows();
  PowerIterationResult res;
  // Deterministic, generically non-orthogonal start.
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 1.0 + 0.5 * std::sin(double(i + 1));
  double vn = norm2(v);
  v /= vn;
  double lambda = 0.0;
  for (std::size_t it = 0; it < max_iterations; ++it) {
    Vector w = a * v;
    const double new_lambda = dot(v, w);
    const double wn = norm2(w);
    if (wn == 0.0) {
      res.eigenvalue = 0.0;
      res.eigenvector = v;
      res.iterations = it;
      res.converged = true;
      return res;
    }
    w /= wn;
    res.iterations = it + 1;
    if (std::abs(new_lambda - lambda) <= tol * std::max(1.0, std::abs(new_lambda))) {
      res.eigenvalue = new_lambda;
      res.eigenvector = w;
      res.converged = true;
      return res;
    }
    lambda = new_lambda;
    v = std::move(w);
  }
  res.eigenvalue = lambda;
  res.eigenvector = v;
  return res;
}

std::optional<double> spd_condition_estimate(const DenseMatrix& a,
                                             std::size_t max_iterations, double tol) {
  if (!a.square()) throw std::invalid_argument("spd_condition_estimate: matrix not square");
  auto chol = CholeskyFactor::factor(a);
  if (!chol) return std::nullopt;

  const auto lambda_max = power_iteration(a, max_iterations, tol);

  // Inverse power iteration: dominant eigenvalue of A⁻¹ is 1/λ_min.
  const std::size_t n = a.rows();
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 1.0 + 0.3 * std::cos(double(i + 1));
  v /= norm2(v);
  double mu = 0.0;
  for (std::size_t it = 0; it < max_iterations; ++it) {
    Vector w = chol->solve(v);
    const double mu_new = dot(v, w);
    const double wn = norm2(w);
    if (wn == 0.0) break;
    w /= wn;
    if (std::abs(mu_new - mu) <= tol * std::max(1.0, std::abs(mu_new))) {
      mu = mu_new;
      break;
    }
    mu = mu_new;
    v = std::move(w);
  }
  if (!(mu > 0.0)) return std::nullopt;
  return lambda_max.eigenvalue * mu;  // λ_max / λ_min
}

std::optional<double> pencil_smallest_positive_eigenvalue(
    const DenseMatrix& g, const DenseMatrix& d, const PencilBisectionOptions& opts) {
  if (!g.square() || g.rows() != d.rows() || !d.square()) {
    throw std::invalid_argument("pencil_smallest_positive_eigenvalue: shape mismatch");
  }
  if (!is_positive_definite(g)) {
    throw std::invalid_argument("pencil_smallest_positive_eigenvalue: G not positive definite");
  }

  TFC_SPAN("pencil_bisection");
  std::size_t probes = 0;
  const auto pd_at = [&](double lambda) {
    ++probes;
    DenseMatrix m = g;
    m -= d * lambda;
    return is_positive_definite(m);
  };

  // Bracket: grow hi until G - hi*D is not PD.
  double lo = 0.0;
  double hi = 1.0;
  bool bracketed = false;
  for (int k = 0; k < 80; ++k) {
    if (!pd_at(hi)) {
      bracketed = true;
      break;
    }
    lo = hi;
    hi *= 2.0;
  }

  auto& metrics = obs::MetricsRegistry::global();
  if (!bracketed) {
    metrics.counter("pencil.pd_probes").increment(probes);
    metrics.counter("pencil.unbounded").increment();
    return std::nullopt;  // no finite runaway limit detected
  }

  std::size_t iterations = 0;
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    if (hi - lo <= opts.rel_tol * hi + opts.abs_tol) break;
    const double mid = 0.5 * (lo + hi);
    if (pd_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
    iterations = it + 1;
  }
  metrics.counter("pencil.pd_probes").increment(probes);
  metrics.histogram("pencil.bisection_iterations").record(double(iterations));
  TFC_LOG_TRACE("pencil_bisection", {"n", g.rows()}, {"iterations", iterations},
                {"pd_probes", probes}, {"lambda", 0.5 * (lo + hi)});
  return 0.5 * (lo + hi);
}

}  // namespace tfc::linalg
