// Approximate minimum degree (AMD) fill-reducing ordering.
//
// Computed on the pattern of A + Aᵀ, so unsymmetric MNA systems (voltage
// source rows, driver stamps) still get a symmetric elimination order. The
// algorithm is the quotient-graph minimum degree of Amestoy, Davis and Duff
// (SIAM J. Matrix Anal. Appl. 17(4), 1996; Davis, "Direct Methods for
// Sparse Linear Systems", ch. 7):
//   * degree lists (one bucket per approximate degree) pick the pivot;
//   * approximate external degrees come from |Le \ Lp|, the part of each
//     adjacent element outside the new pivot element;
//   * element absorption, aggressive absorption (an element contained in
//     the new one is dropped), supervariables (indistinguishable variables
//     found by hashing their adjacency, eliminated together) and mass
//     elimination (a variable left adjacent to the pivot element only goes
//     with the pivot);
//   * dense rows (degree above max(16, 10·sqrt(n))) are taken out of the
//     graph and ordered after everything else;
//   * the elimination is emitted as a postorder of the assembly tree, which
//     keeps each subtree's columns contiguous and leaves the fill unchanged.
//
// `last` pins caller-chosen nodes to the end of the order, in the given
// sequence. They are held out of the graph like dense rows. The transient
// engine passes the driver-stamped nodes here, so a driver transition
// changes only the trailing columns of the factor (see la/sparse_lu.hpp).
//
// Determinism contract: every container update is sequential and every
// tie is broken by list position, which depends only on the pattern — no
// randomness or wall-clock enters. The ordering is a pure function of the
// sparsity pattern and `last`, so factorisations that share a pattern share
// an ordering bit for bit (the property the symbolic-reuse path relies on).
#pragma once

#include <cstddef>
#include <vector>

#include "la/sparse.hpp"

namespace ind::la {

/// Fill-reducing elimination order for the pattern of A + Aᵀ:
/// order[k] = the original row/column eliminated at step k. The nodes of
/// `last` (distinct, each < n) fill the final |last| steps in the given
/// order. Throws std::invalid_argument for a non-square matrix or a bad
/// `last`. O(nnz) quotient-graph memory.
std::vector<std::size_t> amd_order(const CscMatrix& a,
                                   const std::vector<std::size_t>& last = {});

}  // namespace ind::la
