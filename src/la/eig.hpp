// Symmetric eigenvalue estimation used for stability diagnostics.
//
// Section 4 of the paper: a truncated partial-inductance matrix "can become
// non-positive definite, and the sparsified system becomes active and can
// generate energy". The benches quantify this by reporting the extreme
// eigenvalues of each sparsified matrix.
#pragma once

#include "la/dense_matrix.hpp"

namespace ind::la {

/// Largest-magnitude eigenvalue of a symmetric matrix (power iteration).
double dominant_eigenvalue(const Matrix& a, int max_iters = 500,
                           double tol = 1e-10);

}  // namespace ind::la
