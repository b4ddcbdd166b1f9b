#include "la/sparse_lu.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "govern/budget.hpp"
#include "la/amd.hpp"
#include "runtime/metrics.hpp"

namespace ind::la {
namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
// Threshold for diagonal-preference pivoting: the diagonal entry is taken
// whenever it is within this factor of the column's max magnitude (the
// usual MNA pivtol). Keeps the pivot sequence stable across value-only
// refactorisations of diagonally dominant circuit matrices, where a strict
// max-magnitude rule flips between near-equal off-diagonals and forces
// needless full refactorisations.
constexpr double kDiagPreference = 1e-3;
}

SparseLuSymbolic::SparseLuSymbolic(const CscMatrix& a,
                                   std::vector<std::size_t> last)
    : n_(a.rows()), last_(std::move(last)) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("SparseLuSymbolic: matrix must be square");
  runtime::ScopedTimer timer("factor.sparse_lu.symbolic");
  order_ = amd_order(a, last_);
  col_ptr_ = a.col_ptr();
  row_idx_ = a.row_idx();
}

bool SparseLuSymbolic::matches_pattern(const CscMatrix& a) const {
  return analysed() && a.rows() == n_ && a.cols() == n_ &&
         a.col_ptr() == col_ptr_ && a.row_idx() == row_idx_;
}

SparseLu::SparseLu(const CscMatrix& a) : SparseLu(a, SparseLuSymbolic(a)) {}

SparseLu::SparseLu(const CscMatrix& a, SparseLuSymbolic symbolic)
    : symbolic_(std::move(symbolic)), n_(a.rows()) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("SparseLu: matrix must be square");
  if (!symbolic_.matches_pattern(a))
    symbolic_ = SparseLuSymbolic(a, symbolic_.last());
  if (symbolic_.factored() && replay(a, 0)) return;
  factor_full(a);
}

void SparseLu::refactor(const CscMatrix& a) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("SparseLu::refactor: matrix must be square");
  if (symbolic_.factored() && symbolic_.matches_pattern(a)) {
    // Restart at the first elimination step whose column changed since the
    // last factorisation (all of them when there is none to compare with).
    std::size_t start = 0;
    if (values_.size() == a.nnz()) {
      const auto& cp = a.col_ptr();
      const double* av = a.values().data();
      for (; start < n_; ++start) {
        const std::size_t j = symbolic_.order_[start];
        if (std::memcmp(av + cp[j], values_.data() + cp[j],
                        (cp[j + 1] - cp[j]) * sizeof(double)) != 0)
          break;
      }
    }
    if (replay(a, start)) return;
  }
  if (!symbolic_.matches_pattern(a))
    symbolic_ = SparseLuSymbolic(a, symbolic_.last());
  n_ = a.rows();
  factor_full(a);
}

bool SparseLu::replay(const CscMatrix& a, std::size_t start) {
  runtime::ScopedTimer timer("factor.sparse_lu.numeric");
  auto& metrics = runtime::MetricsRegistry::instance();
  if (factor_impl<true>(a, start)) {
    metrics.add_count("factor.sparse_lu.refactors", 1);
    metrics.add_count("factor.sparse_lu.refactor_columns",
                      static_cast<std::int64_t>(n_ - start));
    return true;
  }
  metrics.add_count("factor.sparse_lu.pivot_drift", 1);
  return false;
}

void SparseLu::factor_full(const CscMatrix& a) {
  runtime::ScopedTimer timer("factor.sparse_lu");
  runtime::MetricsRegistry::instance().max_count(
      "factor.sparse_lu.max_nnz", static_cast<std::int64_t>(a.nnz()));
  factor_impl<false>(a);
  runtime::MetricsRegistry::instance().max_count(
      "factor.sparse_lu.fill_nnz", static_cast<std::int64_t>(fill_nnz()));
}

template <bool kReuse>
bool SparseLu::factor_impl(const CscMatrix& a, std::size_t start) {
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_idx();
  const auto& av = a.values();
  const auto& order = symbolic_.order_;
  auto& perm = symbolic_.perm_;
  auto& reach_ptr = symbolic_.reach_ptr_;
  auto& reach = symbolic_.reach_;

  values_.clear();  // no restart point until this sweep succeeds
  if (start == 0) {
    lower_.resize(n_);
    upper_.resize(n_);
    diag_.assign(n_, 0.0);
    x_.assign(n_, 0.0);
    pinv_.assign(n_, kNone);  // original row -> pivot step
  } else {
    // The previous sweep succeeded (a restart point exists), so x_ is zero
    // and pinv_ complete: keep the pivots of the steps before `start`.
    for (std::size_t k = start; k < n_; ++k) pinv_[perm[k]] = kNone;
  }

  std::vector<std::size_t> node_stack, child_pos, pattern;
  if constexpr (!kReuse) {
    // A partially recorded schedule (thrown singularity) must never be
    // mistaken for a valid one: invalidate up front, rebuild, and only the
    // complete loop below leaves reach_ptr at its full n+1 size.
    perm.assign(n_, kNone);
    reach_ptr.clear();
    reach.clear();
    mark_.assign(n_, kNone);  // last column that visited row
    node_stack.reserve(n_);
    child_pos.reserve(n_);
    pattern.reserve(64);
  }

  for (std::size_t k = start; k < n_; ++k) {
    // Budget poll every 64 columns: the unit total is a pure function of n
    // and the restart step (the factorisation is serial), so a work-budget
    // trip here is deterministic. CancelledError propagates past the
    // recovery ladder (which catches only SingularMatrixError) to the
    // degradation ladder.
    if ((k & 63u) == 0 && govern::checkpoint(64))
      govern::throw_if_cancelled("sparse_lu.factor");
    const std::size_t j = order[k];
    const std::size_t* pat = nullptr;
    std::size_t pat_size = 0;
    if constexpr (kReuse) {
      // --- Symbolic phase skipped: replay the cached per-column reach.
      pat = reach.data() + reach_ptr[k];
      pat_size = reach_ptr[k + 1] - reach_ptr[k];
    } else {
      // --- Symbolic: pattern of x = L \ A(:,j) via DFS through L's columns.
      pattern.clear();
      for (std::size_t p = cp[j]; p < cp[j + 1]; ++p) {
        std::size_t start = ri[p];
        if (mark_[start] == k) continue;
        node_stack.assign(1, start);
        child_pos.assign(1, 0);
        mark_[start] = k;
        while (!node_stack.empty()) {
          const std::size_t node = node_stack.back();
          const std::size_t piv = pinv_[node];
          const auto* col = piv == kNone ? nullptr : &lower_[piv];
          bool descended = false;
          while (col && child_pos.back() < col->rows.size()) {
            const std::size_t child = col->rows[child_pos.back()++];
            if (mark_[child] != k) {
              mark_[child] = k;
              node_stack.push_back(child);
              child_pos.push_back(0);
              descended = true;
              break;
            }
          }
          if (!descended) {
            pattern.push_back(node);  // post-order
            node_stack.pop_back();
            child_pos.pop_back();
          }
        }
      }
      pat = pattern.data();
      pat_size = pattern.size();
    }

    // --- Numeric: scatter A(:,j), then eliminate in topological order.
    for (std::size_t idx = 0; idx < pat_size; ++idx) x_[pat[idx]] = 0.0;
    for (std::size_t p = cp[j]; p < cp[j + 1]; ++p) x_[ri[p]] += av[p];
    for (std::size_t idx = pat_size; idx-- > 0;) {
      const std::size_t node = pat[idx];
      const std::size_t piv = pinv_[node];
      if (piv == kNone) continue;
      const double xn = x_[node];
      if (xn == 0.0) continue;
      const Col& col = lower_[piv];
      for (std::size_t q = 0; q < col.rows.size(); ++q)
        x_[col.rows[q]] -= col.vals[q] * xn;
    }

    // --- Partial pivoting among not-yet-pivoted rows, preferring the
    // diagonal when it is within kDiagPreference of the column max. The
    // rule is shared by both modes, so the replayed sequence verifies
    // against exactly the choice a from-scratch factorisation would make.
    std::size_t pivot_row = kNone;
    double best = 0.0;
    double diag_mag = -1.0;  // row j still unpivoted and in the pattern
    for (std::size_t idx = 0; idx < pat_size; ++idx) {
      const std::size_t node = pat[idx];
      if (pinv_[node] != kNone) continue;
      const double mag = std::abs(x_[node]);
      if (node == j) diag_mag = mag;
      if (mag > best) {
        best = mag;
        pivot_row = node;
      }
    }
    if (diag_mag > 0.0 && diag_mag >= kDiagPreference * best) pivot_row = j;
    if constexpr (kReuse) {
      // The cached schedule is only valid while the fresh pivot choice
      // agrees with the recorded one (a kNone here is a singularity — the
      // full path rebuilds and reports it consistently).
      if (pivot_row != perm[k]) return false;
    } else {
      if (pivot_row == kNone || best == 0.0)
        throw SingularMatrixError("SparseLu: singular at column " +
                                  std::to_string(k));
      perm[k] = pivot_row;
    }
    pinv_[pivot_row] = k;
    diag_[k] = x_[pivot_row];

    // Numerically-zero entries are kept so the stored pattern is a pure
    // function of A's pattern and the pivot sequence — the invariant that
    // makes the replayed schedule bitwise-equivalent to a fresh DFS.
    Col& lo = lower_[k];
    Col& up = upper_[k];
    lo.rows.clear();
    lo.vals.clear();
    up.rows.clear();
    up.vals.clear();
    for (std::size_t idx = 0; idx < pat_size; ++idx) {
      const std::size_t node = pat[idx];
      const double val = x_[node];
      x_[node] = 0.0;
      if (node == pivot_row) continue;
      const std::size_t piv = pinv_[node];
      if (piv != kNone) {
        up.rows.push_back(piv);
        up.vals.push_back(val);
      } else {
        lo.rows.push_back(node);
        lo.vals.push_back(val / diag_[k]);
      }
    }

    if constexpr (!kReuse) {
      if (reach_ptr.empty()) reach_ptr.push_back(0);
      reach.insert(reach.end(), pattern.begin(), pattern.end());
      reach_ptr.push_back(reach.size());
    }
  }
  if constexpr (!kReuse) {
    if (reach_ptr.empty()) reach_ptr.push_back(0);  // n == 0
  }
  std::size_t bytes = diag_.size() * sizeof(double);
  for (const Col& c : lower_)
    bytes += c.rows.size() * sizeof(std::size_t) +
             c.vals.size() * sizeof(double);
  for (const Col& c : upper_)
    bytes += c.rows.size() * sizeof(std::size_t) +
             c.vals.size() * sizeof(double);
  charge_.set(bytes);
  values_.assign(a.values().begin(), a.values().end());
  return true;
}

std::size_t SparseLu::fill_nnz() const {
  std::size_t nnz = n_;
  for (const Col& c : lower_) nnz += c.rows.size();
  for (const Col& c : upper_) nnz += c.rows.size();
  return nnz;
}

Vector SparseLu::solve(const Vector& b) const {
  if (b.size() != n_) throw std::invalid_argument("SparseLu::solve: size");
  const auto& perm = symbolic_.perm_;
  const auto& order = symbolic_.order_;
  // Forward substitution: y = L^{-1} P b, with L columns holding original
  // row indices so updates scatter directly into `work`.
  Vector work = b;
  Vector y(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const double yk = work[perm[k]];
    y[k] = yk;
    if (yk == 0.0) continue;
    const Col& col = lower_[k];
    for (std::size_t q = 0; q < col.rows.size(); ++q)
      work[col.rows[q]] -= col.vals[q] * yk;
  }
  // Back substitution with U (entries of column k sit at pivot rows < k).
  for (std::size_t k = n_; k-- > 0;) {
    const double xk = y[k] / diag_[k];
    y[k] = xk;
    if (xk == 0.0) continue;
    const Col& col = upper_[k];
    for (std::size_t q = 0; q < col.rows.size(); ++q)
      y[col.rows[q]] -= col.vals[q] * xk;
  }
  // Undo the fill-reducing column permutation: step k solved for x[order[k]].
  Vector x(n_);
  for (std::size_t k = 0; k < n_; ++k) x[order[k]] = y[k];
  return x;
}

Vector SparseLu::solve_transposed(const Vector& b) const {
  if (b.size() != n_)
    throw std::invalid_argument("SparseLu::solve_transposed: size");
  const auto& perm = symbolic_.perm_;
  const auto& order = symbolic_.order_;
  // A Q = L U with Q the column order and L holding original row indices
  // (L(perm[k], k) = 1), so A^T x = b  <=>  U^T (L^T x) = Q^T b.
  // Forward with U^T: column k of U is row k of U^T (pivot steps < k).
  Vector z(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    double acc = b[order[k]];
    const Col& col = upper_[k];
    for (std::size_t q = 0; q < col.rows.size(); ++q)
      acc -= col.vals[q] * z[col.rows[q]];
    z[k] = acc / diag_[k];
  }
  // Backward with L^T: row k reads x at rows pivoted after step k.
  Vector x(n_);
  for (std::size_t k = n_; k-- > 0;) {
    double acc = z[k];
    const Col& col = lower_[k];
    for (std::size_t q = 0; q < col.rows.size(); ++q)
      acc -= col.vals[q] * x[col.rows[q]];
    x[perm[k]] = acc;
  }
  return x;
}

}  // namespace ind::la
