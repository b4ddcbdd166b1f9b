// Solver fallback ladder: guarded factorisations with bounded, deterministic
// recovery from singular / near-singular systems.
//
// Ladder rungs (fixed escalation schedule, no RNG):
//   dense (complex; the GMRES dense-fallback mesh solve):
//     0. factor as-is
//     1. plain retry            — clears injected faults bitwise-identically
//     2+ diagonal gmin regularisation at kGminLevels[k], refactor
//   sparse (every MNA system, and complex systems in their real-equivalent
//   doubled form — see ComplexSparseFactor):
//     0. factor as-is
//     1. plain retry
//     2. dense-LU fallback      — partial pivoting over the full matrix
//        (skipped above dense_fallback_limit unknowns)
//     3+ diagonal gmin regularisation at kGminLevels[k], sparse refactor
//
// Each rung taken is recorded as a RecoveryAction in the SolveReport; an
// exhausted ladder yields status Failed and an empty factor instead of a
// thrown SingularMatrixError, so callers degrade gracefully.
#pragma once

#include <array>
#include <memory>
#include <string_view>
#include <vector>

#include "la/lu.hpp"
#include "la/sparse.hpp"
#include "la/sparse_lu.hpp"
#include "robust/diagnostics.hpp"

namespace ind::robust {

/// Deterministic gmin escalation schedule (siemens added to every diagonal).
inline constexpr std::array<double, 3> kGminLevels = {1e-9, 1e-6, 1e-3};

/// Factors a dense complex system (the MQS mesh-impedance matrix of the
/// GMRES dense fallback) through the fallback ladder. On failure the
/// returned factor is empty (size() == 0) and report.failed() is true;
/// diagnostics (condition estimate, pivot growth) are filled from the
/// successful factorisation otherwise.
la::CLU factor_dense_with_recovery(const la::CMatrix& a, SolveReport& report,
                                   std::string_view where);

/// Outcome of a guarded sparse factorisation: exactly one of `sparse` /
/// `dense` is set on success (dense when the fallback rung rescued the
/// factorisation), neither on failure.
struct GuardedSparseFactor {
  std::unique_ptr<la::SparseLu> sparse;
  std::unique_ptr<la::LU> dense;
  /// Nodes every sparse analysis orders last (la::SparseLuSymbolic's
  /// `last`), e.g. the transient's driver-stamped nodes. Set it before the
  /// first factorisation; every rung, the from-scratch oracle mode and a
  /// re-analysed pattern (the gmin shift) keep it.
  std::vector<std::size_t> last;
  /// An unfactored analysis (with this `last`) that from-scratch rungs
  /// reuse when the pattern matches; it saves AMD runs, not changes factors.
  la::SparseLuSymbolic analysis;

  bool usable() const { return sparse != nullptr || dense != nullptr; }
  la::Vector solve(const la::Vector& b) const {
    return sparse ? sparse->solve(b) : dense->solve(b);
  }
  /// x = A^-1 b into the caller's buffers (la::SparseLu's buffer-taking
  /// solve; a dense fallback factor returns a fresh vector).
  void solve(const la::Vector& b, la::Vector& x, la::Vector& work) const {
    if (sparse)
      sparse->solve(b, x, work);
    else
      x = dense->solve(b);
  }
  la::Vector solve_transposed(const la::Vector& b) const {
    return sparse ? sparse->solve_transposed(b) : dense->solve_transposed(b);
  }
};

/// Re-factorises `f` in place through the sparse ladder. A held sparse
/// factor is reused via SparseLu::refactor — numeric-only from the first
/// changed column when pattern and pivot sequence are unchanged, so
/// driver-transition refactorisations recompute only the trailing columns
/// of `f.last` — and the result stays bitwise-identical to a from-scratch
/// SparseLu(a, SparseLuSymbolic(a, f.last)). Without one (first call, or
/// after a dense fallback) each rung factors from scratch. On an exhausted
/// ladder `f` is left unusable and the report Failed. Setting
/// IND_SPARSE_NO_REFACTOR=1 makes every rung factor from scratch (A/B
/// oracle for the reuse path).
void refactor_sparse_with_recovery(GuardedSparseFactor& f,
                                   const la::CscMatrix& a, SolveReport& report,
                                   std::string_view where,
                                   std::size_t dense_fallback_limit = 2048);

/// The same ladder into an empty factor.
GuardedSparseFactor factor_sparse_with_recovery(
    const la::CscMatrix& a, SolveReport& report, std::string_view where,
    std::size_t dense_fallback_limit = 2048);

/// A complex m x m system A = Re + j·Im held as the guarded sparse factor
/// of its real-equivalent 2m x 2m form [[Re, -Im], [Im, Re]], so the real
/// SparseLu (AMD ordering, symbolic/numeric split, bitwise contract) serves
/// complex systems unchanged. The caller stamps A's parts into a 2m x 2m
/// TripletMatrix with add_real / add_imag — in its own order, which fixes
/// the summation order of duplicates and the stored pattern — and factors
/// it with refactor(). Used by the AC sweep (G + jwC) and the FFT-GMRES
/// preconditioner (the nodal admittance).
///
/// A row whose diagonal is purely imaginary (an inductor branch row of
/// G + jwC: jwL) leaves both doubled diagonals empty. Listing it in
/// `swapped_rows` trades its real and imaginary equations (rows i and
/// i + m), which puts ±Im A(i, i) on the diagonal, where AMD and the
/// diagonal-preference pivot expect a pivot.
class ComplexSparseFactor {
 public:
  explicit ComplexSparseFactor(
      std::size_t m, const std::vector<std::size_t>& swapped_rows = {});

  /// Re A(i, j) += re: stamps re into column j of row i's real equation
  /// and into column j + m of its imaginary equation.
  void add_real(la::TripletMatrix& t, std::size_t i, std::size_t j,
                double re) const;
  /// Im A(i, j) += im: stamps -im into column j + m of row i's real
  /// equation and im into column j of its imaginary equation.
  void add_imag(la::TripletMatrix& t, std::size_t i, std::size_t j,
                double im) const;
  /// The right-hand side b in the doubled form's row layout.
  la::Vector doubled_rhs(const la::CVector& b) const;

  /// (Re)factors the doubled form `a` through refactor_sparse_with_recovery:
  /// a held factor is reused, so a sweep over one pattern runs one symbolic
  /// analysis and stays bitwise-identical to factoring each point afresh.
  /// A gmin rung adds gmin to every diagonal entry of the doubled form:
  /// Re A(i, i) += gmin on an unswapped row; on a swapped row it shifts the
  /// two equations' ±Im A(i, i) apart, a regularisation of the doubled
  /// matrix rather than of A.
  void refactor(const la::CscMatrix& a, SolveReport& report,
                std::string_view where,
                std::size_t dense_fallback_limit = 2048);

  bool usable() const { return doubled_.usable(); }
  /// x = A^-1 b.
  la::CVector solve(const la::CVector& b) const;
  /// The factor of the doubled form (its real solves feed condition
  /// estimates of the doubled matrix).
  const GuardedSparseFactor& doubled() const { return doubled_; }

 private:
  // Doubled-form rows of row i's real and imaginary equations.
  std::size_t re_row(std::size_t i) const { return swapped_[i] ? i + m_ : i; }
  std::size_t im_row(std::size_t i) const { return swapped_[i] ? i : i + m_; }

  std::size_t m_;
  std::vector<char> swapped_;
  GuardedSparseFactor doubled_;
};

/// True when every entry is finite (no NaN / inf).
bool all_finite(const la::Vector& v);

}  // namespace ind::robust
