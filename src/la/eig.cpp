#include "la/eig.hpp"

#include <cmath>
#include <stdexcept>

namespace ind::la {
namespace {

// Rayleigh quotient after power iteration on a symmetric matrix.
double power_iteration(const Matrix& a, int max_iters, double tol) {
  const std::size_t n = a.rows();
  if (n == 0) return 0.0;
  // Deterministic quasi-random start vector (no RNG dependence).
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(static_cast<double>(i) * 1.2345 + 0.678);
  double nv = norm2(v);
  for (auto& x : v) x /= nv;

  double lambda = 0.0;
  for (int it = 0; it < max_iters; ++it) {
    Vector w = a.apply(v);
    const double next = dot(v, w);
    const double nw = norm2(w);
    if (nw == 0.0) return 0.0;
    for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / nw;
    if (it > 2 && std::abs(next - lambda) <= tol * std::max(1.0, std::abs(next)))
      return next;
    lambda = next;
  }
  return lambda;
}

}  // namespace

double dominant_eigenvalue(const Matrix& a, int max_iters, double tol) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("dominant_eigenvalue: square matrix required");
  return power_iteration(a, max_iters, tol);
}

}  // namespace ind::la
