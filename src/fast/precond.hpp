// Preconditioners for the FFT-GMRES loop extractor.
//
// GMRES on the MQS saddle system converges slowly without a preconditioner
// that captures the local inductive coupling. The Section-4 sparsification
// schemes are exactly that: a sparse L' ≈ L whose MQS system factors
// cheaply with the real-only la::SparseLu. With a diagonal L' the solver
// factors the nodal Schur complement Y = A·diag(R + jωL')⁻¹·Aᵀ instead of
// the saddle system (loop/mqs_solver.cpp). This header provides
//   * voxel_sparsified_l() — lattice-aware builders of the existing schemes
//     (diagonal / block-diagonal strips / shell shift-truncate / magnitude
//     truncation, mirroring sparsify/{block_diagonal,shell,truncation}
//     semantics) that exploit the Toeplitz kernel: the value of a kept term
//     depends only on the lattice offset, so each offset is evaluated once
//     and reused for every pair, giving O(n · |window|) assembly instead of
//     the O(n²) pair scans of the dense schemes; and
//   * ComplexSparseFactor — the complex sparse preconditioner matrix
//     factored through the recovery ladder in its real-equivalent 2m × 2m
//     form [[Re, -Im], [Im, Re]], which lets the existing real SparseLu
//     (AMD ordering, symbolic/numeric split, bitwise contract) serve
//     complex systems unchanged.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "fast/toeplitz_op.hpp"
#include "la/dense_matrix.hpp"
#include "robust/recovery.hpp"
#include "sparsify/mutual_spec.hpp"

namespace ind::fast {

enum class PrecondKind {
  None,       ///< unpreconditioned GMRES (diagnostics only)
  Diag,       ///< cell self terms only
  BlockDiag,  ///< full coupling within axial strips (sparsify/block_diagonal)
  Shell,      ///< shifted kernel M(d) - M(r0) inside radius (sparsify/shell)
  Truncation, ///< raw kernel, |M_ij| >= ratio * sqrt(L_ii L_jj) kept
};

struct PrecondOptions {
  /// Diag is the default: on lattice grids GMRES converges in a handful of
  /// iterations from the cell self terms alone (4 on a signal with three
  /// strapped returns per side at ~2.4k cells), and a diagonal L' lets the
  /// branch currents be eliminated exactly. The solver then factors the
  /// nodal admittance Y = A·diag(1/(R + jωL'))·Aᵀ + pins, whose non-zero
  /// diagonal keeps the AMD order: LU fill ~1.4x nnz there, where the
  /// saddle form's zero node diagonal forced off-diagonal pivots and ~82x
  /// fill (tracked memory 5.1 MB instead of 36.7 MB). The windowed kinds
  /// keep the saddle factor, since their (R + jωL')⁻¹ is not sparse; select
  /// one when diagonal preconditioning stagnates on tightly coupled
  /// geometry.
  PrecondKind kind = PrecondKind::Diag;
  /// Coupling window radius (metres); <= 0 selects 3.5 x pitch.
  double radius = 0.0;
  /// Truncation keep threshold (PrecondKind::Truncation).
  double truncation_ratio = 0.05;
  /// Strip width in cells along the axial direction (PrecondKind::BlockDiag).
  std::size_t strip_cells = 16;
};

/// Sparse L' over the voxel cells per the selected scheme. Deterministic:
/// term order follows cell index order.
sparsify::SparsifiedL voxel_sparsified_l(const ToeplitzLOperator& op,
                                         const PrecondOptions& opts);

struct ComplexTriplet {
  std::size_t i = 0, j = 0;
  la::Complex v;
};

/// A complex sparse factorisation backed by the real SparseLu on the
/// real-equivalent doubled system. Factors the MQS preconditioner: the
/// nodal admittance matrix (active nodes) for a diagonal L' such as
/// PrecondKind::Diag's, the [KCL; branch] saddle system (active nodes +
/// cells) when L' has off-diagonal terms.
class ComplexSparseFactor {
 public:
  ComplexSparseFactor() = default;
  /// Factors the m x m complex system given by `entries` (duplicates sum,
  /// stamp idiom) through robust::factor_sparse_with_recovery; ladder
  /// actions land in `report`. Timed under "fast.precond_factor".
  ComplexSparseFactor(std::size_t m, const std::vector<ComplexTriplet>& entries,
                      robust::SolveReport& report, std::string_view where,
                      std::size_t dense_fallback_limit = 8192);

  bool usable() const { return factor_.usable(); }
  std::size_t size() const { return m_; }

  /// x = A^-1 b.
  la::CVector solve(const la::CVector& b) const;

 private:
  std::size_t m_ = 0;
  robust::GuardedSparseFactor factor_;
};

}  // namespace ind::fast
