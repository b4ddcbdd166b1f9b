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

  bool usable() const { return sparse != nullptr || dense != nullptr; }
  la::Vector solve(const la::Vector& b) const {
    return sparse ? sparse->solve(b) : dense->solve(b);
  }
  la::Vector solve_transposed(const la::Vector& b) const {
    return sparse ? sparse->solve_transposed(b) : dense->solve_transposed(b);
  }
};

/// Re-factorises `f` in place through the sparse ladder. A held sparse
/// factor is reused via SparseLu::refactor — numeric-only when pattern and
/// pivot sequence are unchanged, so driver-transition refactorisations and
/// gmin-shifted retries skip the symbolic work — and the result stays
/// bitwise-identical to a from-scratch factorisation. Without one (first
/// call, or after a dense fallback) each rung factors from scratch. On an
/// exhausted ladder `f` is left unusable and the report Failed. Setting
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
class ComplexSparseFactor {
 public:
  explicit ComplexSparseFactor(std::size_t m) : m_(m) {}

  /// Re A(i, j) += re: stamps re at (i, j) and (i + m, j + m).
  void add_real(la::TripletMatrix& t, std::size_t i, std::size_t j,
                double re) const;
  /// Im A(i, j) += im: stamps -im at (i, j + m) and im at (i + m, j).
  void add_imag(la::TripletMatrix& t, std::size_t i, std::size_t j,
                double im) const;

  /// (Re)factors the doubled form `a` through refactor_sparse_with_recovery:
  /// a held factor is reused, so a sweep over one pattern runs one symbolic
  /// analysis and stays bitwise-identical to factoring each point afresh.
  /// A gmin rung adds gmin to the real part of every diagonal entry of A.
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
  std::size_t m_;
  GuardedSparseFactor doubled_;
};

/// True when every entry is finite (no NaN / inf).
bool all_finite(const la::Vector& v);

}  // namespace ind::robust
