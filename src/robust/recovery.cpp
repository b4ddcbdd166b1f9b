#include "robust/recovery.hpp"

#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>

#include "robust/fault_injection.hpp"
#include "runtime/metrics.hpp"

namespace ind::robust {
namespace {

template <typename T>
la::LuFactor<T> guarded_dense_factor(const la::DenseMatrix<T>& a,
                                     SolveReport& report,
                                     std::string_view where) {
  const std::size_t n = a.rows();
  const int rungs = 2 + static_cast<int>(kGminLevels.size());
  for (int attempt = 0; attempt < rungs; ++attempt) {
    const double gmin =
        attempt >= 2 ? kGminLevels[static_cast<std::size_t>(attempt - 2)] : 0.0;
    if (attempt == 1)
      report.add_action(RecoveryKind::Retry, 0, 0.0, std::string(where));
    else if (attempt >= 2)
      report.add_action(RecoveryKind::GminRegularization, attempt - 1, gmin,
                        std::string(where));
    if (fault::fire(fault::Site::DenseLuPivot)) {
      report.detail = std::string(where) + ": injected singular dense pivot";
      continue;
    }
    la::DenseMatrix<T> work = a;
    for (std::size_t i = 0; i < n; ++i) work(i, i) += gmin;
    try {
      la::LuFactor<T> factor(std::move(work));
      report.pivot_growth =
          std::max(report.pivot_growth, factor.pivot_growth());
      report.condition_estimate =
          std::max(report.condition_estimate, factor.condition_estimate());
      return factor;
    } catch (const la::SingularMatrixError& e) {
      report.detail = std::string(where) + ": " + e.what();
    }
  }
  report.raise_status(SolveStatus::Failed);
  return la::LuFactor<T>{};
}

la::CscMatrix with_diagonal_shift(const la::CscMatrix& a, double gmin) {
  la::TripletMatrix t(a.rows(), a.cols());
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_idx();
  const auto& av = a.values();
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t p = cp[j]; p < cp[j + 1]; ++p) t.add(ri[p], j, av[p]);
  for (std::size_t i = 0; i < a.rows(); ++i) t.add(i, i, gmin);
  return la::CscMatrix(t);
}

}  // namespace

la::LU factor_dense_with_recovery(const la::Matrix& a, SolveReport& report,
                                  std::string_view where) {
  return guarded_dense_factor(a, report, where);
}

la::CLU factor_dense_with_recovery(const la::CMatrix& a, SolveReport& report,
                                   std::string_view where) {
  return guarded_dense_factor(a, report, where);
}

la::Vector solve_dense_mixed_with_recovery(const la::Matrix& a,
                                           const la::Vector& b,
                                           SolveReport& report,
                                           std::string_view where,
                                           const la::RefineOptions& opts) {
  auto& metrics = runtime::MetricsRegistry::instance();
  double guard_cond = 0.0;
  if (fault::fire(fault::Site::DenseLuPivot)) {
    report.detail = std::string(where) + ": injected singular dense pivot";
  } else {
    try {
      const la::MixedLuReal mixed(a);
      const double cond = mixed.condition_estimate();
      guard_cond = cond;
      report.pivot_growth = std::max(report.pivot_growth, mixed.pivot_growth());
      report.condition_estimate = std::max(report.condition_estimate, cond);
      if (cond <= opts.max_condition &&
          mixed.pivot_growth() <= opts.max_pivot_growth) {
        la::Vector x;
        const la::RefineResult rr = mixed.solve(a, b, x, opts);
        metrics.add_count("solve.mixed.refine_iterations", rr.iterations);
        report.residual_norm = rr.residual;
        if (rr.converged) {
          metrics.add_count("solve.mixed.accepted", 1);
          return x;
        }
        report.detail = std::string(where) +
                        ": f32 refinement stalled at relative residual " +
                        std::to_string(rr.residual);
      } else {
        report.detail = std::string(where) +
                        ": f32 factor guard tripped (cond " +
                        std::to_string(cond) + ", growth " +
                        std::to_string(mixed.pivot_growth()) + ")";
      }
    } catch (const la::SingularMatrixError& e) {
      report.detail = std::string(where) + ": " + e.what();
    }
  }
  // Deterministic fallback: the full-double ladder, whose first rung factors
  // `a` unmodified — bitwise-identical to never having tried f32.
  report.add_action(RecoveryKind::MixedPrecisionFallback, 0, guard_cond,
                    std::string(where));
  metrics.add_count("solve.mixed.fallbacks", 1);
  la::LU factor = guarded_dense_factor(a, report, where);
  if (factor.size() == 0) return {};
  return factor.solve(b);
}

GuardedSparseFactor factor_sparse_with_recovery(const la::CscMatrix& a,
                                                SolveReport& report,
                                                std::string_view where,
                                                std::size_t
                                                    dense_fallback_limit) {
  GuardedSparseFactor out;
  auto try_sparse = [&](const la::CscMatrix& m) {
    if (fault::fire(fault::Site::SparseLuPivot)) {
      report.detail = std::string(where) + ": injected singular sparse pivot";
      return false;
    }
    try {
      out.sparse = std::make_unique<la::SparseLu>(m);
      return true;
    } catch (const la::SingularMatrixError& e) {
      report.detail = std::string(where) + ": " + e.what();
      return false;
    }
  };

  if (try_sparse(a)) return out;

  report.add_action(RecoveryKind::Retry, 0, 0.0, std::string(where));
  if (try_sparse(a)) return out;

  if (a.rows() <= dense_fallback_limit) {
    report.add_action(RecoveryKind::DenseFallback, 1,
                      static_cast<double>(a.rows()), std::string(where));
    try {
      la::LU factor(a.to_dense());
      report.pivot_growth =
          std::max(report.pivot_growth, factor.pivot_growth());
      report.condition_estimate =
          std::max(report.condition_estimate, factor.condition_estimate());
      out.dense = std::make_unique<la::LU>(std::move(factor));
      return out;
    } catch (const la::SingularMatrixError& e) {
      report.detail = std::string(where) + ": " + e.what();
    }
  }

  for (std::size_t k = 0; k < kGminLevels.size(); ++k) {
    const double gmin = kGminLevels[k];
    report.add_action(RecoveryKind::GminRegularization,
                      static_cast<int>(k) + 2, gmin, std::string(where));
    if (try_sparse(with_diagonal_shift(a, gmin))) return out;
  }

  report.raise_status(SolveStatus::Failed);
  return out;
}

void refactor_sparse_with_recovery(GuardedSparseFactor& f,
                                   const la::CscMatrix& a, SolveReport& report,
                                   std::string_view where,
                                   std::size_t dense_fallback_limit) {
  const char* off = std::getenv("IND_SPARSE_NO_REFACTOR");
  if (!f.sparse || (off && off[0] == '1')) {
    f = factor_sparse_with_recovery(a, report, where, dense_fallback_limit);
    return;
  }
  auto try_refactor = [&](const la::CscMatrix& m) {
    if (fault::fire(fault::Site::SparseLuPivot)) {
      report.detail = std::string(where) + ": injected singular sparse pivot";
      return false;
    }
    try {
      f.sparse->refactor(m);
      return true;
    } catch (const la::SingularMatrixError& e) {
      report.detail = std::string(where) + ": " + e.what();
      return false;
    }
  };

  if (try_refactor(a)) return;

  report.add_action(RecoveryKind::Retry, 0, 0.0, std::string(where));
  if (try_refactor(a)) return;

  if (a.rows() <= dense_fallback_limit) {
    report.add_action(RecoveryKind::DenseFallback, 1,
                      static_cast<double>(a.rows()), std::string(where));
    try {
      la::LU factor(a.to_dense());
      report.pivot_growth =
          std::max(report.pivot_growth, factor.pivot_growth());
      report.condition_estimate =
          std::max(report.condition_estimate, factor.condition_estimate());
      f.sparse.reset();
      f.dense = std::make_unique<la::LU>(std::move(factor));
      return;
    } catch (const la::SingularMatrixError& e) {
      report.detail = std::string(where) + ": " + e.what();
    }
  }

  for (std::size_t k = 0; k < kGminLevels.size(); ++k) {
    const double gmin = kGminLevels[k];
    report.add_action(RecoveryKind::GminRegularization,
                      static_cast<int>(k) + 2, gmin, std::string(where));
    if (try_refactor(with_diagonal_shift(a, gmin))) return;
  }

  f.sparse.reset();
  f.dense.reset();
  report.raise_status(SolveStatus::Failed);
}

bool all_finite(const la::Vector& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

bool all_finite(const la::CVector& v) {
  for (const la::Complex& x : v)
    if (!std::isfinite(x.real()) || !std::isfinite(x.imag())) return false;
  return true;
}

}  // namespace ind::robust
