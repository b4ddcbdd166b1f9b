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

  /// Solves A^T x = b with the same factors (no refactorisation).
  Vector solve_transposed(const Vector& b) const;

 private:
  struct Col {
    std::vector<std::size_t> rows;
    std::vector<double> vals;
  };

  /// One numeric sweep. kReuse = false: DFS per column from step 0,
  /// records reach and pivots into symbolic_, throws on singularity.
  /// kReuse = true: keeps columns 0..start-1 of the held factor and replays
  /// the cached reach and pivot sequence from step `start`, returns false
  /// the moment a pivot choice (or a singularity) deviates — the caller
  /// then reruns the full path. Both modes execute the same scalar
  /// arithmetic in the same order. On success the values of `a` are kept
  /// for the next refactor's restart point.
  template <bool kReuse>
  bool factor_impl(const CscMatrix& a, std::size_t start = 0);
  /// Numeric-only pass from the first changed column (counted under
  /// "factor.sparse_lu.refactors"/".refactor_columns"); false on drift.
  bool replay(const CscMatrix& a, std::size_t start);
  /// The full symbolic + numeric factorisation.
  void factor_full(const CscMatrix& a);

  SparseLuSymbolic symbolic_;
  std::size_t n_ = 0;
  std::vector<Col> lower_;  // strictly-lower part, unit diagonal implicit
  std::vector<Col> upper_;  // upper part excluding diagonal
  Vector diag_;             // U diagonal
  // Values of the last successfully factored matrix (empty otherwise): a
  // refactor restarts at the first step whose column differs from them.
  std::vector<double> values_;
  // Workspaces kept across refactorisations to avoid reallocation.
  std::vector<double> x_;
  std::vector<std::size_t> pinv_, mark_;
  // Memory-governor charge for the L/U fill arrays (set after each
  // successful numeric sweep; see govern/memory.hpp).
  govern::MemCharge charge_;
};

}  // namespace ind::la
