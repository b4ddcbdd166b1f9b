#include "mor/prima.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "govern/budget.hpp"
#include "la/lu.hpp"
#include "la/qr.hpp"
#include "robust/fault_injection.hpp"
#include "robust/recovery.hpp"
#include "runtime/metrics.hpp"

namespace ind::mor {
namespace {

std::vector<double> diagonal(const la::CscMatrix& m) {
  std::vector<double> d(m.cols(), 0.0);
  for (std::size_t j = 0; j < m.cols(); ++j)
    for (std::size_t p = m.col_ptr()[j]; p < m.col_ptr()[j + 1]; ++p)
      if (m.row_idx()[p] == j) d[j] += m.values()[p];
  return d;
}

// Row scales for factoring G + s0 C. An inductor-branch row (its diagonal
// comes from C alone: s0 L i - (v_a - v_b) = 0) is an equation in volts, a
// node row one in amperes. At s0 a node's diagonal s0 C_node is far below
// the unit incidence entries the branch rows put into its column, so the
// pivots leave the diagonal and the LU fills ~2.6x more than the same
// pattern at the transient's shift. Scaling the branch rows by the
// characteristic admittance Y0 = sqrt(C_node / L_branch) (geometric means
// of the diagonal stamps) puts both in amperes and keeps the pivots on the
// diagonal. Unscaled rows get exactly 1.
std::vector<double> branch_row_scales(const la::CscMatrix& g,
                                      const la::CscMatrix& c) {
  const std::vector<double> gd = diagonal(g), cd = diagonal(c);
  double log_c = 0.0, log_l = 0.0;
  std::size_t caps = 0, branches = 0;
  for (std::size_t i = 0; i < cd.size(); ++i) {
    if (cd[i] == 0.0) continue;
    if (gd[i] != 0.0) {
      log_c += std::log(std::abs(cd[i]));
      ++caps;
    } else {
      log_l += std::log(std::abs(cd[i]));
      ++branches;
    }
  }
  std::vector<double> scale(cd.size(), 1.0);
  if (caps == 0 || branches == 0) return scale;
  const double y0 = std::exp(0.5 * (log_c / static_cast<double>(caps) -
                                    log_l / static_cast<double>(branches)));
  for (std::size_t i = 0; i < cd.size(); ++i)
    if (cd[i] != 0.0 && gd[i] == 0.0) scale[i] = y0;
  return scale;
}

la::CscMatrix scale_rows(const la::CscMatrix& a,
                         const std::vector<double>& scale) {
  std::vector<double> values = a.values();
  for (std::size_t p = 0; p < values.size(); ++p)
    values[p] *= scale[a.row_idx()[p]];
  return la::CscMatrix(a.rows(), a.cols(), a.col_ptr(), a.row_idx(),
                       std::move(values));
}

// Solves with A = G + s0 C through the factor of D A (D = row scales):
// A^-1 b = (D A)^-1 (D b) and A^-T b = D (D A)^-T b.
struct ScaledFactor {
  robust::GuardedSparseFactor lu;
  std::vector<double> row_scale;

  la::Vector solve(la::Vector b) const {
    for (std::size_t i = 0; i < b.size(); ++i) b[i] *= row_scale[i];
    return lu.solve(b);
  }
  la::Vector solve_transposed(const la::Vector& b) const {
    la::Vector x = lu.solve_transposed(b);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] *= row_scale[i];
    return x;
  }
};

// One solve per column of the block.
la::Matrix solve_block(const ScaledFactor& factor, const la::Matrix& rhs) {
  la::Matrix x(rhs.rows(), rhs.cols());
  la::Vector col(rhs.rows());
  for (std::size_t j = 0; j < rhs.cols(); ++j) {
    for (std::size_t i = 0; i < rhs.rows(); ++i) col[i] = rhs(i, j);
    const la::Vector sol = factor.solve(col);
    for (std::size_t i = 0; i < rhs.rows(); ++i) x(i, j) = sol[i];
  }
  return x;
}

}  // namespace

ReducedModel prima_reduce(const la::CscMatrix& g, const la::CscMatrix& c,
                          const la::Matrix& b, const la::Matrix& l,
                          const PrimaOptions& opts) {
  const std::size_t n = g.rows();
  if (g.cols() != n || c.rows() != n || c.cols() != n || b.rows() != n ||
      l.rows() != n)
    throw std::invalid_argument("prima_reduce: dimension mismatch");
  if (b.cols() == 0)
    throw std::invalid_argument("prima_reduce: no input columns");

  ReducedModel r;
  robust::SolveReport& report = r.report;

  // A = (G + s0 C)^{-1}; factor once (row-scaled), reuse for every block.
  const la::CscMatrix shifted = la::add_scaled(g, opts.s0, c);
  ScaledFactor factor;
  factor.row_scale = branch_row_scales(g, c);
  factor.lu = robust::factor_sparse_with_recovery(
      scale_rows(shifted, factor.row_scale), report, "prima");
  if (!factor.lu.usable()) {
    report.record("prima");
    throw la::SingularMatrixError(
        "prima_reduce: G + s0*C is singular (fallback ladder exhausted)");
  }
  {
    runtime::ScopedTimer timer("robust.condition_estimate");
    report.condition_estimate = std::max(
        report.condition_estimate,
        la::norm1(shifted) *
            la::inverse_norm1_estimate<double>(
                n, [&](const la::Vector& v) { return factor.solve(v); },
                [&](const la::Vector& v) {
                  return factor.solve_transposed(v);
                }));
  }

  runtime::ScopedTimer timer("solve.prima_krylov");
  auto finite_col = [](const la::Matrix& m, std::size_t j) {
    for (std::size_t i = 0; i < m.rows(); ++i)
      if (!std::isfinite(m(i, j))) return false;
    return true;
  };
  // A non-finite Krylov block (overflow/injected breakdown) is re-solved
  // once, then the still-bad columns are deflated out of the block so the
  // basis never absorbs a NaN.
  auto guard_block = [&](la::Matrix& blk, const la::Matrix& rhs,
                         std::int64_t iter) {
    const std::string site = "prima krylov block " + std::to_string(iter);
    if (robust::fault::fire(robust::fault::Site::KrylovBlock))
      blk(0, 0) = std::numeric_limits<double>::quiet_NaN();
    bool bad = false;
    for (std::size_t j = 0; j < blk.cols() && !bad; ++j)
      bad = !finite_col(blk, j);
    if (!bad) return;
    report.add_action(robust::RecoveryKind::Retry, 0, 0.0, site);
    blk = solve_block(factor, rhs);
    if (robust::fault::fire(robust::fault::Site::KrylovBlock))
      blk(0, 0) = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::size_t> keep;
    for (std::size_t j = 0; j < blk.cols(); ++j)
      if (finite_col(blk, j)) keep.push_back(j);
    if (keep.size() == blk.cols()) return;
    report.add_action(robust::RecoveryKind::KrylovDeflation, 1,
                      static_cast<double>(blk.cols() - keep.size()), site);
    la::Matrix cleaned(n, keep.size());
    for (std::size_t j = 0; j < keep.size(); ++j)
      for (std::size_t i = 0; i < n; ++i) cleaned(i, j) = blk(i, keep[j]);
    blk = std::move(cleaned);
  };

  // First block: orth((G + s0 C)^{-1} B).
  la::Matrix basis(n, 0);
  la::Matrix block = solve_block(factor, b);
  std::int64_t krylov_iterations = 0;
  guard_block(block, b, krylov_iterations);
  while (basis.cols() < opts.max_order && block.cols() > 0) {
    // Budget poll per Arnoldi iteration, charged at the state dimension
    // (the iteration's solve cost scales with n). The loop is serial, so a
    // work-budget trip is deterministic.
    if (govern::checkpoint(n))
      govern::throw_if_cancelled("prima.arnoldi");
    ++krylov_iterations;
    const la::QrResult qr =
        la::orthonormalize_against(block, basis, opts.deflation_tol);
    if (qr.rank == 0) break;  // Krylov space exhausted
    // Append, truncating to the order budget.
    const std::size_t take =
        std::min<std::size_t>(qr.rank, opts.max_order - basis.cols());
    la::Matrix taken(n, take);
    for (std::size_t j = 0; j < take; ++j)
      for (std::size_t i = 0; i < n; ++i) taken(i, j) = qr.q(i, j);
    basis = la::hcat(basis, taken);
    if (basis.cols() >= opts.max_order) break;
    // Next block: A * C * (new columns).
    const la::Matrix rhs = c * taken;
    block = solve_block(factor, rhs);
    guard_block(block, rhs, krylov_iterations);
  }
  if (basis.cols() == 0) {
    report.raise_status(robust::SolveStatus::Failed);
    report.record("prima");
    throw std::runtime_error("prima_reduce: empty projection basis");
  }
  runtime::MetricsRegistry::instance().add_count("solve.prima.iterations",
                                                 krylov_iterations);

  r.v = basis;
  const la::Matrix vt = basis.transposed();
  r.g = vt * (g * basis);
  r.c = vt * (c * basis);
  r.b = vt * b;
  r.l = vt * l;
  report.record("prima");
  return r;
}

}  // namespace ind::mor
