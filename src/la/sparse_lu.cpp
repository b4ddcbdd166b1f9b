#include "la/sparse_lu.hpp"

#include <algorithm>
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

// The pivot rule both sweeps share: among the pattern's rows not yet
// pivoted, the first of maximal magnitude, unless the diagonal row j is
// within kDiagPreference of that maximum (then j). kNone when no
// unpivoted row has a nonzero; `best` returns the maximum.
template <class Unpivoted, class Magnitude>
std::size_t choose_pivot(const std::size_t* pat, std::size_t size,
                         std::size_t j, Unpivoted unpivoted, Magnitude mag_of,
                         double& best) {
  std::size_t pivot_row = kNone;
  best = 0.0;
  double diag_mag = -1.0;  // row j still unpivoted and in the pattern
  for (std::size_t idx = 0; idx < size; ++idx) {
    const std::size_t node = pat[idx];
    if (!unpivoted(node)) continue;
    const double mag = mag_of(node);
    if (node == j) diag_mag = mag;
    if (mag > best) {
      best = mag;
      pivot_row = node;
    }
  }
  if (diag_mag > 0.0 && diag_mag >= kDiagPreference * best) pivot_row = j;
  return pivot_row;
}

// Sorts each column [ptr[k], ptr[k+1]) of (idx, val) by idx (distinct
// within a column).
void sort_columns(const std::vector<std::size_t>& ptr,
                  std::vector<std::size_t>& idx, std::vector<double>& val) {
  std::vector<std::pair<std::size_t, double>> col;
  for (std::size_t k = 0; k + 1 < ptr.size(); ++k) {
    col.clear();
    for (std::size_t q = ptr[k]; q < ptr[k + 1]; ++q)
      col.emplace_back(idx[q], val[q]);
    std::sort(col.begin(), col.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (std::size_t q = ptr[k]; q < ptr[k + 1]; ++q) {
      idx[q] = col[q - ptr[k]].first;
      val[q] = col[q - ptr[k]].second;
    }
  }
}
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
  if (replay_sweep(a, start)) {
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
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_idx();
  const auto& av = a.values();
  const auto& order = symbolic_.order_;
  auto& perm = symbolic_.perm_;
  auto& reach_ptr = symbolic_.reach_ptr_;
  auto& reach = symbolic_.reach_;

  values_.clear();  // no restart point until this sweep succeeds
  // A partially recorded schedule (thrown singularity) must never be
  // mistaken for a valid one: only the complete loop below leaves reach_ptr
  // at its full n+1 size.
  perm.assign(n_, kNone);
  reach_ptr.assign(1, 0);
  reach.clear();
  diag_.assign(n_, 0.0);
  x_.assign(n_, 0.0);
  pinv_.assign(n_, kNone);  // original row -> pivot step
  mark_.assign(n_, kNone);  // last column that visited row
  lower_.truncate(0);
  upper_.truncate(0);
  std::vector<std::size_t> node_stack, child_pos, pattern;
  node_stack.reserve(n_);
  child_pos.reserve(n_);
  pattern.reserve(64);

  // Until the sweep ends, L's columns hold original rows: the DFS walks
  // them, and the rows of later steps have no step yet.
  const auto& lp = lower_.ptr;
  const auto& li = lower_.idx;
  const auto& lx = lower_.val;
  for (std::size_t k = 0; k < n_; ++k) {
    // Budget poll every 64 columns: the unit total is a pure function of n
    // and the restart step (the factorisation is serial), so a work-budget
    // trip here is deterministic. CancelledError propagates past the
    // recovery ladder (which catches only SingularMatrixError) to the
    // degradation ladder.
    if ((k & 63u) == 0 && govern::checkpoint(64))
      govern::throw_if_cancelled("sparse_lu.factor");
    const std::size_t j = order[k];

    // --- Symbolic: pattern of x = L \ A(:,j) via DFS through L's columns.
    pattern.clear();
    for (std::size_t p = cp[j]; p < cp[j + 1]; ++p) {
      const std::size_t root = ri[p];
      if (mark_[root] == k) continue;
      node_stack.assign(1, root);
      child_pos.assign(1, 0);
      mark_[root] = k;
      while (!node_stack.empty()) {
        const std::size_t node = node_stack.back();
        const std::size_t piv = pinv_[node];
        bool descended = false;
        if (piv != kNone) {
          while (lp[piv] + child_pos.back() < lp[piv + 1]) {
            const std::size_t child = li[lp[piv] + child_pos.back()++];
            if (mark_[child] != k) {
              mark_[child] = k;
              node_stack.push_back(child);
              child_pos.push_back(0);
              descended = true;
              break;
            }
          }
        }
        if (!descended) {
          pattern.push_back(node);  // post-order
          node_stack.pop_back();
          child_pos.pop_back();
        }
      }
    }

    // --- Numeric: scatter A(:,j), then eliminate in topological order.
    for (const std::size_t node : pattern) x_[node] = 0.0;
    for (std::size_t p = cp[j]; p < cp[j + 1]; ++p) x_[ri[p]] += av[p];
    for (std::size_t idx = pattern.size(); idx-- > 0;) {
      const std::size_t node = pattern[idx];
      const std::size_t piv = pinv_[node];
      if (piv == kNone) continue;
      const double xn = x_[node];
      if (xn == 0.0) continue;
      for (std::size_t q = lp[piv]; q < lp[piv + 1]; ++q)
        x_[li[q]] -= lx[q] * xn;
    }

    double best = 0.0;
    const std::size_t pivot_row = choose_pivot(
        pattern.data(), pattern.size(), j,
        [&](std::size_t node) { return pinv_[node] == kNone; },
        [&](std::size_t node) { return std::abs(x_[node]); }, best);
    if (pivot_row == kNone || best == 0.0)
      throw SingularMatrixError("SparseLu: singular at column " +
                                std::to_string(k));
    perm[k] = pivot_row;
    pinv_[pivot_row] = k;
    diag_[k] = x_[pivot_row];

    // Numerically-zero entries are kept so the stored pattern is a pure
    // function of A's pattern and the pivot sequence — the invariant that
    // makes the replayed schedule bitwise-equivalent to a fresh DFS.
    for (const std::size_t node : pattern) {
      const double val = x_[node];
      x_[node] = 0.0;
      if (node == pivot_row) continue;
      const std::size_t piv = pinv_[node];
      if (piv != kNone) {
        upper_.idx.push_back(piv);
        upper_.val.push_back(val);
      } else {
        lower_.idx.push_back(node);
        lower_.val.push_back(val / diag_[k]);
      }
    }
    lower_.close_column();
    upper_.close_column();
    reach.insert(reach.end(), pattern.begin(), pattern.end());
    reach_ptr.push_back(reach.size());
  }

  // The stored form: L's rows become steps, and every column is sorted by
  // step (only a dot product cares about the order within a column, and
  // solve_transposed() takes it from the reach).
  for (std::size_t& r : lower_.idx) r = pinv_[r];
  for (Triangle* t : {&lower_, &upper_}) {
    sort_columns(t->ptr, t->idx, t->val);
    t->runs.split(t->ptr, t->idx);
  }
  finish_sweep(a);
  runtime::MetricsRegistry::instance().max_count(
      "factor.sparse_lu.fill_nnz", static_cast<std::int64_t>(fill_nnz()));
}

bool SparseLu::replay_sweep(const CscMatrix& a, std::size_t start) {
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_idx();
  const auto& av = a.values();
  const auto& order = symbolic_.order_;
  const auto& perm = symbolic_.perm_;
  const auto& reach_ptr = symbolic_.reach_ptr_;
  const auto& reach = symbolic_.reach_;

  // The stored pattern is a pure function of the reach and the pivot
  // sequence, so after a successful sweep (a restart point exists, the
  // only way `start` can be above 0) it stands for every column and only
  // values change. A symbolic object recorded by another factor brings no
  // stored form: its columns are built from the reach.
  const bool keep_pattern = !values_.empty();
  values_.clear();  // no restart point until this sweep succeeds
  if (!keep_pattern) {
    pinv_.assign(n_, kNone);
    for (std::size_t k = 0; k < n_; ++k) pinv_[perm[k]] = k;
    diag_.assign(n_, 0.0);
    x_.assign(n_, 0.0);
    lower_.truncate(start);
    upper_.truncate(start);
  }

  // Everything runs in step space: x[s] is the entry of the row pivoted at
  // step s, and a row is pivoted before step k exactly when s < k.
  double* x = x_.data();
  for (std::size_t k = start; k < n_; ++k) {
    if ((k & 63u) == 0 && govern::checkpoint(64))
      govern::throw_if_cancelled("sparse_lu.factor");
    const std::size_t j = order[k];
    const std::size_t* pat = reach.data() + reach_ptr[k];
    const std::size_t pat_size = reach_ptr[k + 1] - reach_ptr[k];

    for (std::size_t idx = 0; idx < pat_size; ++idx) x[pinv_[pat[idx]]] = 0.0;
    for (std::size_t p = cp[j]; p < cp[j + 1]; ++p) x[pinv_[ri[p]]] += av[p];
    for (std::size_t idx = pat_size; idx-- > 0;) {
      const std::size_t s = pinv_[pat[idx]];
      if (s >= k) continue;
      const double xs = x[s];
      if (xs == 0.0) continue;
      lower_.sub_column(s, xs, x);
    }

    // The cached schedule is only valid while the fresh pivot choice agrees
    // with the recorded one (a kNone here is a singularity — the full path
    // rebuilds and reports it consistently).
    double best = 0.0;
    const std::size_t pivot_row = choose_pivot(
        pat, pat_size, j, [&](std::size_t node) { return pinv_[node] >= k; },
        [&](std::size_t node) { return std::abs(x[pinv_[node]]); }, best);
    if (pivot_row != perm[k]) return false;
    diag_[k] = x[k];

    if (!keep_pattern) {
      for (std::size_t idx = 0; idx < pat_size; ++idx) {
        const std::size_t s = pinv_[pat[idx]];
        if (s < k) upper_.idx.push_back(s);
        if (s > k) lower_.idx.push_back(s);
      }
      for (Triangle* t : {&lower_, &upper_}) {
        std::sort(t->idx.begin() + static_cast<std::ptrdiff_t>(t->ptr[k]),
                  t->idx.end());
        t->val.resize(t->idx.size());
        t->close_column();
        t->runs.split(t->ptr, t->idx, k);
      }
    }
    for (std::size_t q = lower_.ptr[k]; q < lower_.ptr[k + 1]; ++q)
      lower_.val[q] = x[lower_.idx[q]] / diag_[k];
    for (std::size_t q = upper_.ptr[k]; q < upper_.ptr[k + 1]; ++q)
      upper_.val[q] = x[upper_.idx[q]];
    for (std::size_t idx = 0; idx < pat_size; ++idx) x[pinv_[pat[idx]]] = 0.0;
  }
  finish_sweep(a);
  return true;
}

void SparseLu::finish_sweep(const CscMatrix& a) {
  charge_.set(diag_.size() * sizeof(double) + lower_.bytes() +
              upper_.bytes() + pinv_.size() * sizeof(std::size_t));
  values_.assign(a.values().begin(), a.values().end());
}

void SparseLu::Triangle::truncate(std::size_t k) {
  if (ptr.empty()) ptr.push_back(0);
  ptr.resize(k + 1);
  idx.resize(ptr[k]);
  val.resize(ptr[k]);
}

void SparseLu::Triangle::sub_column(std::size_t k, double s, double* y) const {
  const std::size_t* ix = idx.data();
  const double* v = val.data();
  runs.walk(
      k, ptr[k], ptr[k + 1], [&](std::size_t p) { y[ix[p]] -= v[p] * s; },
      [&](std::size_t p, std::size_t q) {
        double* d = y + ix[p];
        const double* w = v + p;
        for (std::size_t i = 0; i < q - p; ++i) d[i] -= w[i] * s;
      });
}

std::size_t SparseLu::Triangle::bytes() const {
  return (ptr.size() + idx.size()) * sizeof(std::size_t) +
         val.size() * sizeof(double) + runs.bytes();
}

std::size_t SparseLu::fill_nnz() const {
  return n_ + lower_.idx.size() + upper_.idx.size();
}

Vector SparseLu::solve(const Vector& b) const {
  Vector x, work;
  solve(b, x, work);
  return x;
}

void SparseLu::solve(const Vector& b, Vector& x, Vector& work) const {
  if (b.size() != n_) throw std::invalid_argument("SparseLu::solve: size");
  const auto& perm = symbolic_.perm_;
  const auto& order = symbolic_.order_;
  work.resize(n_);
  double* y = work.data();
  // Forward substitution in step space: y = L^{-1} P b.
  for (std::size_t k = 0; k < n_; ++k) y[k] = b[perm[k]];
  for (std::size_t k = 0; k < n_; ++k) {
    const double yk = y[k];
    if (yk == 0.0) continue;
    lower_.sub_column(k, yk, y);
  }
  // Back substitution with U (entries of column k sit at steps < k).
  for (std::size_t k = n_; k-- > 0;) {
    const double xk = y[k] / diag_[k];
    y[k] = xk;
    if (xk == 0.0) continue;
    upper_.sub_column(k, xk, y);
  }
  // Undo the fill-reducing column permutation: step k solved for x[order[k]].
  x.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) x[order[k]] = y[k];
}

Vector SparseLu::solve_transposed(const Vector& b) const {
  if (b.size() != n_)
    throw std::invalid_argument("SparseLu::solve_transposed: size");
  const auto& perm = symbolic_.perm_;
  const auto& order = symbolic_.order_;
  const auto& reach_ptr = symbolic_.reach_ptr_;
  const auto& reach = symbolic_.reach_;
  // A Q = L U with Q the column order and P the pivot rows, so
  // A^T x = b  <=>  U^T (L^T P x) = Q^T b. Both triangular solves are dot
  // products over a column, accumulated in the order the column's reach
  // lists its entries; `col` holds the column's values by step meanwhile.
  Vector col(n_, 0.0);
  auto dot = [&](const Triangle& t, std::size_t k, bool upper, double acc,
                 const Vector& v) {
    for (std::size_t q = t.ptr[k]; q < t.ptr[k + 1]; ++q) col[t.idx[q]] = t.val[q];
    for (std::size_t r = reach_ptr[k]; r < reach_ptr[k + 1]; ++r) {
      const std::size_t s = pinv_[reach[r]];
      if (upper ? s < k : s > k) acc -= col[s] * v[s];
    }
    for (std::size_t q = t.ptr[k]; q < t.ptr[k + 1]; ++q) col[t.idx[q]] = 0.0;
    return acc;
  };
  // Forward with U^T: column k of U is row k of U^T (steps < k).
  Vector z(n_);
  for (std::size_t k = 0; k < n_; ++k)
    z[k] = dot(upper_, k, true, b[order[k]], z) / diag_[k];
  // Backward with L^T: row k reads the steps after k.
  Vector y(n_);
  for (std::size_t k = n_; k-- > 0;) y[k] = dot(lower_, k, false, z[k], y);
  Vector x(n_);
  for (std::size_t k = 0; k < n_; ++k) x[perm[k]] = y[k];
  return x;
}

}  // namespace ind::la
