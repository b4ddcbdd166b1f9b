// Dense LU factorisation with partial pivoting, for real and complex systems.
//
// Used by the MQS loop solver's mesh-impedance solve (complex; Dense
// extraction and the GMRES dense fallback), the K = L^-1 inverse, and the
// sparse ladder's dense-fallback rung. Every MNA system (transient, AC,
// PRIMA's G + s0·C) and the reduced models' co-simulation factor with the
// sparse LU instead (la/sparse_lu.hpp).
//
// The elimination is cache-blocked (la/kernels.hpp): panel factor with
// partial pivoting, unit-lower TRSM on the panel's trailing row block, then
// a rank-kb GEMM on the trailing matrix. Because every kernel applies the
// updates to each element in ascending pivot order, the blocked factor is
// bitwise-identical to the classic unblocked loop (block = 1) and to itself
// at any IND_THREADS for a fixed block size.
#pragma once

#include <functional>
#include <stdexcept>

#include "la/dense_matrix.hpp"

namespace ind::la {

/// Thrown when a factorisation encounters an (numerically) singular pivot.
class SingularMatrixError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Fixed blocking configuration of a factorisation. Results are bitwise
/// deterministic per configuration: the same block size reproduces the same
/// bits at any thread count, and every block size is bitwise-identical to
/// the unblocked elimination (block = 1) by the kernel ordering contract.
struct LuOptions {
  /// Panel width, clamped to [1, 512]; 1 degenerates to the classic
  /// unblocked loop.
  std::size_t block = 48;
};

/// LU decomposition P*A = L*U with partial pivoting, stored packed in-place.
template <typename T>
class LuFactor {
 public:
  LuFactor() = default;

  /// Factorises a square matrix. Throws SingularMatrixError on breakdown.
  explicit LuFactor(DenseMatrix<T> a) : LuFactor(std::move(a), LuOptions{}) {}
  LuFactor(DenseMatrix<T> a, const LuOptions& opts);

  std::size_t size() const { return lu_.rows(); }

  /// Solves A x = b.
  std::vector<T> solve(const std::vector<T>& b) const;

  /// Solves A X = B over column blocks (each column's arithmetic is
  /// bitwise-identical to the vector solve). Throws std::invalid_argument
  /// up front when B.rows() != size().
  DenseMatrix<T> solve(const DenseMatrix<T>& b) const;

  /// Solves A^T x = b (used by the 1-norm condition estimator).
  std::vector<T> solve_transposed(const std::vector<T>& b) const;

  /// Packed L\U storage (unit-lower L below the diagonal, U on and above).
  /// Exposed for the determinism digests in bench/tests.
  const DenseMatrix<T>& packed() const { return lu_; }

  /// Row permutation: row i of the factored system came from row perm()[i].
  const std::vector<std::size_t>& perm() const { return perm_; }

  // --- robustness diagnostics ----------------------------------------------
  /// 1-norm of the original (unfactored) matrix.
  double norm1() const { return norm1_; }

  /// Element-growth ratio max|U| / max|A|: large growth flags a factorisation
  /// whose backward error is poor even though no pivot was exactly zero.
  double pivot_growth() const { return pivot_growth_; }

  /// Deterministic 1-norm condition estimate kappa_1(A) ~= ||A||_1 ||A^-1||_1
  /// via Hager's method (a handful of forward/transposed solves, O(n^2)).
  double condition_estimate() const;

 private:
  DenseMatrix<T> lu_;
  std::vector<std::size_t> perm_;
  double norm1_ = 0.0;
  double pivot_growth_ = 0.0;
};

using LU = LuFactor<double>;
using CLU = LuFactor<Complex>;

/// Hager's deterministic estimate of ||A^-1||_1 for an n x n system given
/// only its solve (A x = b) and transposed solve (A^T x = b): maximises
/// ||A^-1 x||_1 over the unit 1-norm ball by following sign-vector
/// gradients, at most five iterations. Shared by the dense and sparse
/// factorisations' condition estimates; +inf when a solve overflows.
template <typename T>
double inverse_norm1_estimate(
    std::size_t n,
    const std::function<std::vector<T>(const std::vector<T>&)>& solve,
    const std::function<std::vector<T>(const std::vector<T>&)>&
        solve_transposed);

/// Convenience: solve A x = b with a one-shot factorisation.
Vector solve(Matrix a, const Vector& b);
CVector solve(CMatrix a, const CVector& b);

/// Dense inverse (used for the K = L^-1 matrix of Section 4).
Matrix inverse(const Matrix& a);

}  // namespace ind::la
