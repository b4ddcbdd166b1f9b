// Preconditioner factor for the FFT-GMRES loop extractor.
//
// GMRES on the MQS saddle system converges slowly without a preconditioner
// that captures the cell self impedance. The solver (loop/mqs_solver.cpp)
// keeps only the cell self term L_self of the partial-L operator, so the
// branch currents eliminate exactly and the preconditioner is the nodal
// admittance Y = A·diag(1/(R + jω·L_self))·Aᵀ. ComplexSparseFactor factors
// that complex sparse matrix through the recovery ladder in its
// real-equivalent 2m × 2m form [[Re, -Im], [Im, Re]], which lets the
// existing real SparseLu (AMD ordering, symbolic/numeric split, bitwise
// contract) serve complex systems unchanged.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "la/dense_matrix.hpp"
#include "robust/recovery.hpp"

namespace ind::fast {

struct ComplexTriplet {
  std::size_t i = 0, j = 0;
  la::Complex v;
};

/// A complex sparse factorisation backed by the real SparseLu on the
/// real-equivalent doubled system.
class ComplexSparseFactor {
 public:
  /// Factors the m x m complex system given by `entries` (duplicates sum,
  /// stamp idiom) through robust::factor_sparse_with_recovery; ladder
  /// actions land in `report`. Timed under "fast.precond_factor".
  ComplexSparseFactor(std::size_t m, const std::vector<ComplexTriplet>& entries,
                      robust::SolveReport& report, std::string_view where,
                      std::size_t dense_fallback_limit);

  bool usable() const { return factor_.usable(); }

  /// x = A^-1 b.
  la::CVector solve(const la::CVector& b) const;

 private:
  std::size_t m_ = 0;
  robust::GuardedSparseFactor factor_;
};

}  // namespace ind::fast
