// PRIMA: Passive Reduced-order Interconnect Macromodeling Algorithm
// (Odabasioglu et al. [20]; Section 4 of the paper).
//
// Given the MNA system  G x + C x' = B u,  y = L^T x,  PRIMA builds an
// orthonormal basis V of the block Krylov subspace
//   Kr((G + s0 C)^{-1} C, (G + s0 C)^{-1} B)
// and reduces by congruence: Gr = V^T G V, Cr = V^T C V, Br = V^T B,
// Lr = V^T L. Congruence preserves passivity when G, C satisfy the usual
// MNA semidefiniteness structure.
//
// The paper's combined flow [4] additionally distinguishes *active ports*
// (driver attachment points, excited) from *passive sinks* (observed only):
// that variant simply passes the sink selectors in L rather than B, which
// shrinks the Krylov block width and the reduction cost.
//
// G and C stay sparse throughout (the CSC stamps of circuit::Mna): G + s0 C
// is factored once by the sparse LU, each Krylov block costs one sparse
// mat-vec and one sparse solve per column, and the congruence projection
// forms V^T (G V) from sparse products. Only the n x q basis and the q x q
// reduced matrices are dense.
#pragma once

#include "la/dense_matrix.hpp"
#include "la/sparse.hpp"
#include "robust/diagnostics.hpp"

namespace ind::mor {

struct PrimaOptions {
  std::size_t max_order = 40;        ///< max columns of V
  double s0 = 2.0 * 3.141592653589793 * 1e9;  ///< expansion point (rad/s)
  double deflation_tol = 1e-10;
};

struct ReducedModel {
  la::Matrix g;  ///< q x q
  la::Matrix c;  ///< q x q
  la::Matrix b;  ///< q x p   (reduced inputs)
  la::Matrix l;  ///< q x m   (reduced output selectors)
  la::Matrix v;  ///< n x q   (projection basis)

  /// Robustness diagnostics: condition estimate of G + s0 C, plus any
  /// gmin-regularisation or Krylov-deflation fallback the reduction took.
  robust::SolveReport report;

  std::size_t order() const { return g.rows(); }
};

/// Reduces (G, C, B, L). Non-finite Krylov blocks are re-solved and then
/// deflated (the offending columns dropped) rather than propagated into the
/// basis; a singular (G + s0 C) goes through the sparse fallback ladder
/// (retry, dense LU, gmin) and throws la::SingularMatrixError only once
/// every rung is exhausted.
ReducedModel prima_reduce(const la::CscMatrix& g, const la::CscMatrix& c,
                          const la::Matrix& b, const la::Matrix& l,
                          const PrimaOptions& opts = {});

}  // namespace ind::mor
