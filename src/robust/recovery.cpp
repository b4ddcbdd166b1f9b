#include "robust/recovery.hpp"

#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>

#include "robust/fault_injection.hpp"

namespace ind::robust {
namespace {

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

la::CLU factor_dense_with_recovery(const la::CMatrix& a, SolveReport& report,
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
    la::CMatrix work = a;
    for (std::size_t i = 0; i < n; ++i) work(i, i) += gmin;
    try {
      la::CLU factor(std::move(work));
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
  return la::CLU{};
}

GuardedSparseFactor factor_sparse_with_recovery(const la::CscMatrix& a,
                                                SolveReport& report,
                                                std::string_view where,
                                                std::size_t
                                                    dense_fallback_limit) {
  GuardedSparseFactor f;
  refactor_sparse_with_recovery(f, a, report, where, dense_fallback_limit);
  return f;
}

void refactor_sparse_with_recovery(GuardedSparseFactor& f,
                                   const la::CscMatrix& a, SolveReport& report,
                                   std::string_view where,
                                   std::size_t dense_fallback_limit) {
  const char* off = std::getenv("IND_SPARSE_NO_REFACTOR");
  const bool reuse = !(off && off[0] == '1');
  // Refactors the held sparse factor in place when there is one (bitwise
  // identical to a fresh SparseLu by SparseLu::refactor's contract), else
  // factors from scratch. A throw leaves `f` to the next rung.
  auto try_sparse = [&](const la::CscMatrix& m) {
    if (fault::fire(fault::Site::SparseLuPivot)) {
      report.detail = std::string(where) + ": injected singular sparse pivot";
      return false;
    }
    try {
      if (f.sparse && reuse)
        f.sparse->refactor(m);
      else
        f.sparse = std::make_unique<la::SparseLu>(
            m, f.analysis.matches_pattern(m) ? f.analysis
                                             : la::SparseLuSymbolic(m, f.last));
      f.dense.reset();
      return true;
    } catch (const la::SingularMatrixError& e) {
      report.detail = std::string(where) + ": " + e.what();
      return false;
    }
  };

  if (try_sparse(a)) return;

  report.add_action(RecoveryKind::Retry, 0, 0.0, std::string(where));
  if (try_sparse(a)) return;

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
    if (try_sparse(with_diagonal_shift(a, gmin))) return;
  }

  f.sparse.reset();
  f.dense.reset();
  report.raise_status(SolveStatus::Failed);
}

ComplexSparseFactor::ComplexSparseFactor(
    std::size_t m, const std::vector<std::size_t>& swapped_rows)
    : m_(m), swapped_(m, 0) {
  for (const std::size_t i : swapped_rows) swapped_.at(i) = 1;
}

void ComplexSparseFactor::add_real(la::TripletMatrix& t, std::size_t i,
                                   std::size_t j, double re) const {
  t.add(re_row(i), j, re);
  t.add(im_row(i), j + m_, re);
}

void ComplexSparseFactor::add_imag(la::TripletMatrix& t, std::size_t i,
                                   std::size_t j, double im) const {
  t.add(re_row(i), j + m_, -im);
  t.add(im_row(i), j, im);
}

la::Vector ComplexSparseFactor::doubled_rhs(const la::CVector& b) const {
  la::Vector rb(2 * m_);
  for (std::size_t i = 0; i < m_; ++i) {
    rb[re_row(i)] = b[i].real();
    rb[im_row(i)] = b[i].imag();
  }
  return rb;
}

void ComplexSparseFactor::refactor(const la::CscMatrix& a,
                                   SolveReport& report, std::string_view where,
                                   std::size_t dense_fallback_limit) {
  refactor_sparse_with_recovery(doubled_, a, report, where,
                                dense_fallback_limit);
}

la::CVector ComplexSparseFactor::solve(const la::CVector& b) const {
  const la::Vector rx = doubled_.solve(doubled_rhs(b));
  la::CVector x(m_);
  for (std::size_t i = 0; i < m_; ++i) x[i] = {rx[i], rx[i + m_]};
  return x;
}

bool all_finite(const la::Vector& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace ind::robust
