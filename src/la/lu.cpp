#include "la/lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "govern/budget.hpp"
#include "la/kernels.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"

namespace ind::la {
namespace {

double magnitude(double x) { return std::abs(x); }
double magnitude(const Complex& x) { return std::abs(x); }

// Unit-magnitude direction of x (Hager estimator); 1 for zero entries.
double sign_of(double x) { return x >= 0.0 ? 1.0 : -1.0; }
Complex sign_of(const Complex& x) {
  const double m = std::abs(x);
  return m == 0.0 ? Complex{1.0, 0.0} : x / m;
}

}  // namespace

template <typename T>
LuFactor<T>::LuFactor(DenseMatrix<T> a, const LuOptions& opts)
    : lu_(std::move(a)) {
  if (lu_.rows() != lu_.cols())
    throw std::invalid_argument("LuFactor: matrix must be square");
  runtime::ScopedTimer timer("factor.lu");
  const std::size_t n = lu_.rows();
  runtime::MetricsRegistry::instance().max_count(
      "factor.lu.max_dim", static_cast<std::int64_t>(n));
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  // Capture ||A||_1 and max|A| before elimination overwrites the entries;
  // both feed the post-factorisation condition / growth diagnostics. (Row
  // traversal with per-column accumulators keeps the scan cache-friendly;
  // each column's sum is still accumulated in ascending row order.)
  T* const d = lu_.data();
  double amax = 0.0;
  {
    std::vector<double> colsum(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const T* ri = d + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        const double m = magnitude(ri[j]);
        colsum[j] += m;
        if (m > amax) amax = m;
      }
    }
    for (std::size_t j = 0; j < n; ++j) norm1_ = std::max(norm1_, colsum[j]);
  }

  const std::size_t nb = std::clamp<std::size_t>(opts.block, 1, 512);
  runtime::CancelToken* const cancel = govern::cancel_token();

  // Blocked right-looking elimination. Each element receives its updates in
  // ascending pivot order — panel rank-1s touch only panel columns, the TRSM
  // applies pivots k0..k1 to the panel's trailing rows in ascending order,
  // and the GEMM does the same for the trailing matrix — so the factor is
  // bitwise-identical to the unblocked loop and to itself at any thread
  // count (disjoint chunk writes, fixed block size).
  for (std::size_t k0 = 0; k0 < n; k0 += nb) {
    const std::size_t k1 = std::min(k0 + nb, n);

    // --- panel factor: columns k0..k1 over all remaining rows -------------
    for (std::size_t k = k0; k < k1; ++k) {
      // Budget poll, one per eliminated column with the trailing row count
      // as the unit charge — pure function of (n, k), so a work-budget trip
      // is bitwise deterministic. CancelledError passes through the recovery
      // ladder (it catches only SingularMatrixError).
      if (govern::checkpoint(n - k)) govern::throw_if_cancelled("lu.factor");
      // Partial pivoting: pick the largest magnitude in column k. The column
      // is fully updated through pivot k-1 at this point, so the choice —
      // and the whole permutation — matches the unblocked elimination.
      std::size_t pivot = k;
      double best = magnitude(d[k * n + k]);
      for (std::size_t i = k + 1; i < n; ++i) {
        const double cand = magnitude(d[i * n + k]);
        if (cand > best) {
          best = cand;
          pivot = i;
        }
      }
      if (best == 0.0)
        throw SingularMatrixError("LuFactor: singular matrix at column " +
                                  std::to_string(k));
      if (pivot != k) {
        for (std::size_t j = 0; j < n; ++j)
          std::swap(d[k * n + j], d[pivot * n + j]);
        std::swap(perm_[k], perm_[pivot]);
      }
      const T diag = d[k * n + k];
      const T* const rk = d + k * n;
      // Rank-1 update restricted to the panel's own columns; the trailing
      // columns are updated later by the TRSM/GEMM pair in the same
      // per-element order. No zero-skip: `-0.0 - (-0.0 * x)` and a skipped
      // update differ in the sign of zero, which would break the bitwise
      // blocked == unblocked contract.
      // Serial: at most kb - 1 flops per row, far below what a pool
      // dispatch per column costs.
      for (std::size_t i = k + 1; i < n; ++i) {
        T* ri = d + i * n;
        const T factor = ri[k] / diag;
        ri[k] = factor;
        for (std::size_t j = k + 1; j < k1; ++j) ri[j] -= factor * rk[j];
      }
    }
    if (k1 == n) break;

    const std::size_t kb = k1 - k0;
    const std::size_t nc = n - k1;  // trailing columns == trailing rows

    // --- TRSM: U block = L_panel^-1 * A(k0..k1, k1..n), column chunks -----
    // Chunk charges are linear in the column span, so the work-unit total
    // (nc * kb per panel) is independent of chunking / thread count.
    if (nc >= 64) {
      runtime::parallel_for(
          nc,
          [&](std::size_t jb0, std::size_t jb1) {
            if (govern::checkpoint((jb1 - jb0) * kb)) return;
            kernels::trsm_lower_unit_minus(kb, jb1 - jb0, d + k0 * n + k0, n,
                                           d + k0 * n + k1 + jb0, n);
          },
          {.grain = 64, .cancel = cancel});
    } else if (!govern::checkpoint(nc * kb)) {
      kernels::trsm_lower_unit_minus(kb, nc, d + k0 * n + k0, n,
                                     d + k0 * n + k1, n);
    }
    govern::throw_if_cancelled("lu.factor");

    // --- GEMM: trailing matrix -= L(k1..n, panel) * U(panel, k1..n) -------
    if (nc >= 64) {
      runtime::parallel_for(
          nc,
          [&](std::size_t i0, std::size_t i1) {
            if (govern::checkpoint((i1 - i0) * kb)) return;
            kernels::gemm_minus(i1 - i0, nc, kb, d + (k1 + i0) * n + k0, n,
                                d + k0 * n + k1, n, d + (k1 + i0) * n + k1,
                                n);
          },
          {.grain = 256, .cancel = cancel});
    } else if (!govern::checkpoint(nc * kb)) {
      kernels::gemm_minus(nc, nc, kb, d + k1 * n + k0, n, d + k0 * n + k1, n,
                          d + k1 * n + k1, n);
    }
    govern::throw_if_cancelled("lu.factor");
  }

  double umax = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j)
      umax = std::max(umax, magnitude(lu_(i, j)));
  pivot_growth_ = amax > 0.0 ? umax / amax : 0.0;
}

template <typename T>
std::vector<T> LuFactor<T>::solve(const std::vector<T>& b) const {
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("LuFactor::solve: size");
  std::vector<T> x(n);
  // Apply permutation, then forward-substitute with unit-diagonal L.
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  for (std::size_t i = 1; i < n; ++i) {
    T acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back-substitute with U.
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

template <typename T>
DenseMatrix<T> LuFactor<T>::solve(const DenseMatrix<T>& b) const {
  const std::size_t n = size();
  // Validate at the call site, not from inside a pool worker.
  if (b.rows() != n)
    throw std::invalid_argument("LuFactor::solve: rhs has " +
                                std::to_string(b.rows()) +
                                " rows; expected " + std::to_string(n));
  DenseMatrix<T> x(b.rows(), b.cols());
  if (b.cols() == 0 || n == 0) return x;
  // Blocked multi-RHS solve: disjoint column chunks in parallel, each swept
  // in narrow strips so one strip of every RHS row stays cache-resident
  // while the packed factor streams through exactly once per strip. The
  // per-element update order (ascending j within each row's substitution)
  // matches the vector solve, so every column is bitwise-identical to
  // solve(vector).
  constexpr std::size_t kStrip = 32;
  const T* const lu = lu_.data();
  runtime::parallel_for(
      b.cols(),
      [&](std::size_t j_begin, std::size_t j_end) {
        std::vector<T> buf;
        for (std::size_t s0 = j_begin; s0 < j_end; s0 += kStrip) {
          const std::size_t s1 = std::min(s0 + kStrip, j_end);
          const std::size_t w = s1 - s0;
          buf.assign(n * w, T{});
          // Permuted gather of the strip.
          for (std::size_t i = 0; i < n; ++i) {
            const T* src = b.data() + perm_[i] * b.cols() + s0;
            T* dst = buf.data() + i * w;
            for (std::size_t c = 0; c < w; ++c) dst[c] = src[c];
          }
          // Forward-substitute with unit-diagonal L.
          for (std::size_t i = 1; i < n; ++i) {
            const T* li = lu + i * n;
            T* xi = buf.data() + i * w;
            for (std::size_t j = 0; j < i; ++j) {
              const T lij = li[j];
              const T* xj = buf.data() + j * w;
              for (std::size_t c = 0; c < w; ++c) xi[c] -= lij * xj[c];
            }
          }
          // Back-substitute with U.
          for (std::size_t ii = n; ii-- > 0;) {
            const T* ui = lu + ii * n;
            T* xi = buf.data() + ii * w;
            for (std::size_t j = ii + 1; j < n; ++j) {
              const T uij = ui[j];
              const T* xj = buf.data() + j * w;
              for (std::size_t c = 0; c < w; ++c) xi[c] -= uij * xj[c];
            }
            const T diag = ui[ii];
            for (std::size_t c = 0; c < w; ++c) xi[c] /= diag;
          }
          for (std::size_t i = 0; i < n; ++i) {
            const T* src = buf.data() + i * w;
            T* dst = x.data() + i * x.cols() + s0;
            for (std::size_t c = 0; c < w; ++c) dst[c] = src[c];
          }
        }
      },
      {.grain = 4});
  return x;
}

template <typename T>
std::vector<T> LuFactor<T>::solve_transposed(const std::vector<T>& b) const {
  const std::size_t n = size();
  if (b.size() != n)
    throw std::invalid_argument("LuFactor::solve_transposed: size");
  // P A = L U  =>  A^T = U^T L^T P; solve U^T z = b (forward, diag of U),
  // then L^T w = z (backward, unit diag), then x = P^T w.
  std::vector<T> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    T acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(j, i) * z[j];
    z[i] = acc / lu_(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = z[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(j, ii) * z[j];
    z[ii] = acc;
  }
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = z[i];
  return x;
}

template <typename T>
double inverse_norm1_estimate(
    std::size_t n,
    const std::function<std::vector<T>(const std::vector<T>&)>& solve,
    const std::function<std::vector<T>(const std::vector<T>&)>&
        solve_transposed) {
  if (n == 0) return 0.0;
  std::vector<T> x(n, T(1.0 / static_cast<double>(n)));
  double est = 0.0;
  std::size_t last_j = n;  // unit-vector index of the previous iteration
  for (int iter = 0; iter < 5; ++iter) {
    const std::vector<T> y = solve(x);
    double y1 = 0.0;
    for (const T& v : y) y1 += magnitude(v);
    if (!std::isfinite(y1)) return std::numeric_limits<double>::infinity();
    est = std::max(est, y1);
    std::vector<T> xi(n);
    for (std::size_t i = 0; i < n; ++i) xi[i] = sign_of(y[i]);
    const std::vector<T> z = solve_transposed(xi);
    std::size_t j = 0;
    double zmax = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double m = magnitude(z[i]);
      if (m > zmax) {
        zmax = m;
        j = i;
      }
    }
    if (j == last_j || zmax <= y1) break;
    last_j = j;
    std::fill(x.begin(), x.end(), T{});
    x[j] = T{1.0};
  }
  return est;
}

template double inverse_norm1_estimate<double>(
    std::size_t, const std::function<Vector(const Vector&)>&,
    const std::function<Vector(const Vector&)>&);
template double inverse_norm1_estimate<Complex>(
    std::size_t, const std::function<CVector(const CVector&)>&,
    const std::function<CVector(const CVector&)>&);

template <typename T>
double LuFactor<T>::condition_estimate() const {
  return norm1_ * inverse_norm1_estimate<T>(
                      size(), [this](const std::vector<T>& b) { return solve(b); },
                      [this](const std::vector<T>& b) {
                        return solve_transposed(b);
                      });
}

template class LuFactor<double>;
template class LuFactor<Complex>;

Vector solve(Matrix a, const Vector& b) { return LU(std::move(a)).solve(b); }

CVector solve(CMatrix a, const CVector& b) {
  return CLU(std::move(a)).solve(b);
}

Matrix inverse(const Matrix& a) {
  return LU(a).solve(Matrix::identity(a.rows()));
}

}  // namespace ind::la
