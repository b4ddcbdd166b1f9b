// Solver fallback ladder: guarded factorisations with bounded, deterministic
// recovery from singular / near-singular systems.
//
// Ladder rungs (fixed escalation schedule, no RNG):
//   dense (real or complex):
//     0. factor as-is
//     1. plain retry            — clears injected faults bitwise-identically
//     2+ diagonal gmin regularisation at kGminLevels[k], refactor
//   sparse:
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
#include "la/refine.hpp"
#include "la/sparse.hpp"
#include "la/sparse_lu.hpp"
#include "robust/diagnostics.hpp"

namespace ind::robust {

/// Deterministic gmin escalation schedule (siemens added to every diagonal).
inline constexpr std::array<double, 3> kGminLevels = {1e-9, 1e-6, 1e-3};

/// Factors a dense real / complex system through the fallback ladder.
/// On failure the returned factor is empty (size() == 0) and
/// report.failed() is true; diagnostics (condition estimate, pivot growth)
/// are filled from the successful factorisation otherwise.
la::LU factor_dense_with_recovery(const la::Matrix& a, SolveReport& report,
                                  std::string_view where);
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
};

/// Mixed-precision guarded dense solve: float32 blocked factor + float64
/// iterative refinement (la/refine.hpp), guarded by the f32 factor's
/// condition / pivot-growth estimates. When the guard trips, the factor is
/// singular in f32, or refinement stalls above tolerance, a
/// RecoveryKind::MixedPrecisionFallback action is recorded and the solve
/// falls back to the full-double ladder above — whose first rung factors
/// the matrix as-is, so the fallback result is bitwise-identical to the
/// plain double path. On an exhausted ladder the returned vector is empty
/// and report.failed() is true.
la::Vector solve_dense_mixed_with_recovery(
    const la::Matrix& a, const la::Vector& b, SolveReport& report,
    std::string_view where, const la::RefineOptions& opts = {});

GuardedSparseFactor factor_sparse_with_recovery(
    const la::CscMatrix& a, SolveReport& report, std::string_view where,
    std::size_t dense_fallback_limit = 2048);

/// Re-factorises `f` in place through the same ladder as
/// factor_sparse_with_recovery. An existing sparse factor is reused via
/// SparseLu::refactor — numeric-only when pattern and pivot sequence are
/// unchanged, so driver-transition refactorisations and gmin-shifted
/// retries skip the symbolic work — and the result stays bitwise-identical
/// to a from-scratch ladder run. Without a usable sparse factor (first
/// call, or after a dense fallback) this degrades to the from-scratch
/// ladder. On an exhausted ladder `f` is left unusable and the report
/// Failed. Setting IND_SPARSE_NO_REFACTOR=1 forces the from-scratch ladder
/// every time (A/B oracle for the reuse path).
void refactor_sparse_with_recovery(GuardedSparseFactor& f,
                                   const la::CscMatrix& a, SolveReport& report,
                                   std::string_view where,
                                   std::size_t dense_fallback_limit = 2048);

/// True when every entry is finite (no NaN / inf).
bool all_finite(const la::Vector& v);
bool all_finite(const la::CVector& v);

}  // namespace ind::robust
