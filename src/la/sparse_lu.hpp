// Left-looking (Gilbert-Peierls) sparse LU with threshold partial pivoting
// (diagonal preference), an AMD fill-reducing pre-ordering and a KLU-style
// symbolic/numeric split.
//
// The MNA matrices of grid-dominated workloads (Table 1: 220k resistors in
// the clock-net power-grid model) are far too large for dense factorisation
// but factor quickly with a sparse direct method. Three observations shape
// the design:
//   1. Fill-in is ordering-dominated: the columns are eliminated in an
//      approximate-minimum-degree order computed on the pattern of A + Aᵀ
//      (la/amd.hpp), applied as a symmetric permutation ahead of the
//      numeric factorisation.
//   2. Transient driver transitions and gmin-regularised retries refactor
//      the *same sparsity pattern* with new values, so the symbolic work
//      (ordering, per-column elimination reach, pivot sequence) is kept in
//      a reusable SparseLuSymbolic and `refactor(values)` runs a
//      numeric-only pass: no DFS, no allocations.
//   3. A driver transition changes only the columns of the driver's nodes.
//      The symbolic analysis takes those nodes as `last`, so AMD orders
//      them at the end, and `refactor` restarts the numeric pass at the
//      first elimination step whose column of A changed. Column k of L and
//      U depends only on columns 0..k of A (in elimination order), so every
//      earlier column is already what a fresh pass would compute.
//
// Determinism / bitwise contract: the ordering is a pure function of the
// sparsity pattern and `last`, numerically-zero fill entries are *kept* in
// L and U (so the stored pattern depends only on A's pattern and the pivot
// sequence, never on values), and the numeric-only path verifies each
// replayed pivot against the fresh pivot choice (diagonal when within the
// MNA-style threshold of the column max, else max magnitude — the same rule
// in both modes) — the moment one drifts, the full factorisation reruns.
// Every result is therefore bitwise-identical to a from-scratch
// `SparseLu(a, SparseLuSymbolic(a, last))` at any thread count (the
// factorisation is serial), which preserves the store-fingerprint and
// determinism contracts.
//
// Stored form. After each successful sweep, L and U are kept once, by pivot
// step: column k of each holds step indices (L's rows mapped through the
// row-to-step inverse of the pivot sequence) sorted ascending, with their
// values, in flat arrays split into singletons and runs of consecutive
// steps (la::ColumnRuns). solve() runs entirely in step space, so a run is a
// plain `d[i] -= v[i] * y` loop that GCC vectorises; in the full-RLC
// companion factor most of L's and U's fill lies in such runs. The full
// sweep builds L in original rows (its DFS walks them) and converts at the
// end. A replay runs in step space throughout. A restart refactor keeps the
// columns before `start` and rewrites only the values of the later ones:
// the replayed reach and pivots fix those columns' steps, so their stored
// pattern stands.
//
// The stored form changes no bit of a result against a plain scatter of
// each column in elimination order: every update of a row is the same
// product and the same subtraction, each rounded on its own (no FMA: the
// build passes -mno-fma), and a row receives its updates in the same
// order, because a column updates each row once and the columns go in the
// same order. Sorting a column, or handing its runs to vector loops,
// reorders only updates of different rows. The one place where the order
// within a column matters is a dot product: solve_transposed() accumulates
// each column in the order its reach (the recorded elimination pattern)
// lists the entries.
#pragma once

#include <vector>

#include "la/lu.hpp"
#include "la/sparse.hpp"

namespace ind::la {

/// Reusable symbolic state of a sparse factorisation: the AMD column
/// ordering with its pinned `last` nodes, a fingerprint of the analysed
/// sparsity pattern, and — once a
/// numeric factorisation has recorded them — the pivot sequence and
/// per-column elimination reach. One symbolic object serves every matrix
/// with the same pattern (driver-transition refactorisations, per-sweep
/// matrices, gmin-shifted retries).
class SparseLuSymbolic {
 public:
  SparseLuSymbolic() = default;
  /// Analyses the pattern: copies the pattern fingerprint and computes the
  /// AMD ordering with the nodes of `last` eliminated at the end, in the
  /// given order (timed under "factor.sparse_lu.symbolic"). Throws
  /// std::invalid_argument unless `a` is square and `last` holds distinct
  /// indices below its size.
  explicit SparseLuSymbolic(const CscMatrix& a,
                            std::vector<std::size_t> last = {});

  std::size_t size() const { return n_; }
  bool analysed() const { return !col_ptr_.empty(); }
  /// True once a numeric factorisation has recorded the complete reach +
  /// pivot schedule, i.e. the numeric-only refactor path is available.
  bool factored() const { return reach_ptr_.size() == n_ + 1; }
  /// order()[k] = original column eliminated at step k.
  const std::vector<std::size_t>& order() const { return order_; }
  /// The nodes pinned to the end of order(); every re-analysis of a new
  /// pattern (SparseLu's constructor and refactor) keeps them.
  const std::vector<std::size_t>& last() const { return last_; }
  /// True when `a` has exactly the analysed pattern (same dimensions,
  /// col_ptr and row_idx) — the precondition for any reuse.
  bool matches_pattern(const CscMatrix& a) const;

 private:
  friend class SparseLu;
  std::size_t n_ = 0;
  std::vector<std::size_t> last_;               // pinned to the end of order_
  std::vector<std::size_t> order_;              // AMD elimination order
  std::vector<std::size_t> col_ptr_, row_idx_;  // analysed pattern
  // Recorded by the numeric factorisation; pure functions of the pattern
  // and the pivot sequence (zero fill entries are kept in L/U):
  std::vector<std::size_t> perm_;       // pivot row of step k
  std::vector<std::size_t> reach_ptr_;  // size n+1: reach_ slice per column
  std::vector<std::size_t> reach_;      // per-column reach, post-ordered
};

class SparseLu {
 public:
  /// Analyses and factorises the square CSC matrix. Throws
  /// SingularMatrixError if a zero pivot column is encountered.
  explicit SparseLu(const CscMatrix& a);
  /// Same, but reuses a previously analysed (and possibly factored)
  /// symbolic object; falls back to a fresh analysis (keeping its `last`)
  /// when the pattern does not match, so the result is always
  /// bitwise-identical to SparseLu(a, SparseLuSymbolic(a, symbolic.last())).
  SparseLu(const CscMatrix& a, SparseLuSymbolic symbolic);

  /// Re-factorises for new values. When `a` has the pattern of the current
  /// factorisation, the numeric phase restarts at the first elimination
  /// step whose column of `a` differs (bitwise) from the last factored
  /// values, and replays the recorded reach and pivots from there
  /// ("factor.sparse_lu.numeric": no DFS, no allocation; the recomputed
  /// columns add to "factor.sparse_lu.refactor_columns"). A drifted pivot
  /// choice, or a new pattern, reruns the full symbolic + numeric
  /// factorisation with the same `last`. Either way the factor is
  /// bitwise-identical to `SparseLu(a, SparseLuSymbolic(a, last))`. Throws
  /// SingularMatrixError like the constructor — the object must be
  /// refactorised successfully before further solves.
  void refactor(const CscMatrix& a);

  std::size_t size() const { return n_; }
  std::size_t fill_nnz() const;
  const SparseLuSymbolic& symbolic() const { return symbolic_; }

  /// Solves A x = b.
  Vector solve(const Vector& b) const;
  /// Solves A x = b into the caller's `x`, with `work` as the step-space
  /// scratch; both are resized to size() (no allocation once they have
  /// it). `x` may alias `b`; `work` must alias neither.
  void solve(const Vector& b, Vector& x, Vector& work) const;

  /// Solves A^T x = b with the same factors (no refactorisation).
  Vector solve_transposed(const Vector& b) const;

 private:
  // One triangle of the stored form: column k's entries are
  // [ptr[k], ptr[k+1]) of idx (pivot steps, ascending) and val. Only while
  // a full sweep runs does L's idx hold original rows, in reach order.
  struct Triangle {
    std::vector<std::size_t> ptr, idx;
    std::vector<double> val;
    ColumnRuns runs;
    /// Keeps columns 0..k-1 only.
    void truncate(std::size_t k);
    /// Appends a column: entries [ptr.back(), idx.size()) of idx / val.
    void close_column() { ptr.push_back(idx.size()); }
    /// y[idx[p]] -= val[p] * s over column k.
    void sub_column(std::size_t k, double s, double* y) const;
    std::size_t bytes() const;
  };

  /// The full symbolic + numeric factorisation: DFS per column from step
  /// 0, records reach and pivots into symbolic_, throws on singularity.
  void factor_full(const CscMatrix& a);
  /// Numeric-only pass from step `start` (counted under
  /// "factor.sparse_lu.refactors"/".refactor_columns"): keeps columns
  /// 0..start-1 of the stored form and replays the cached reach and pivot
  /// sequence in step space. Returns false the moment a pivot choice (or a
  /// singularity) deviates — the caller then reruns the full path. Both
  /// paths execute the same scalar arithmetic in the same order.
  bool replay(const CscMatrix& a, std::size_t start);
  /// The sweep replay() times and counts.
  bool replay_sweep(const CscMatrix& a, std::size_t start);
  /// After a successful sweep: charges the stored form and keeps `a`'s
  /// values for the next refactor's restart point.
  void finish_sweep(const CscMatrix& a);

  SparseLuSymbolic symbolic_;
  std::size_t n_ = 0;
  Triangle lower_;  // strictly lower part, unit diagonal implicit
  Triangle upper_;  // strictly upper part
  Vector diag_;     // U diagonal
  // Values of the last successfully factored matrix (empty otherwise): a
  // refactor restarts at the first step whose column differs from them,
  // and the stored pattern is then current.
  std::vector<double> values_;
  // pinv_[row] = pivot step of an original row; complete after a sweep.
  std::vector<std::size_t> pinv_;
  // Workspaces kept across refactorisations to avoid reallocation.
  std::vector<double> x_;
  std::vector<std::size_t> mark_;
  // Memory-governor charge for the L/U fill arrays (set after each
  // successful numeric sweep; see govern/memory.hpp).
  govern::MemCharge charge_;
};

}  // namespace ind::la
