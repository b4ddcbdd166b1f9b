#include "mor/prima.hpp"

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

ReducedModel prima_reduce(const la::Matrix& g, const la::Matrix& c,
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

  // A = (G + s0 C)^{-1}; factor once, reuse for every Krylov block.
  la::Matrix shifted = g;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) shifted(i, j) += opts.s0 * c(i, j);
  const la::LU factor =
      robust::factor_dense_with_recovery(shifted, report, "prima");
  if (factor.size() == 0) {
    report.record("prima");
    throw la::SingularMatrixError(
        "prima_reduce: G + s0*C is singular (fallback ladder exhausted)");
  }

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
    blk = factor.solve(rhs);
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
  la::Matrix block = factor.solve(b);
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
    block = factor.solve(rhs);
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
