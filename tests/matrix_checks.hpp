// Symmetry oracle for the extraction, reduction and property tests: a plain
// element-wise comparison that shares no code with the matrix assembly it
// audits.
#pragma once

#include <algorithm>
#include <cmath>

#include "la/dense_matrix.hpp"

namespace ind::test {

/// max |A - A^T| <= tol * max|A|; false for a non-square matrix.
inline bool is_symmetric(const la::Matrix& m, double tol = 1e-12) {
  if (m.rows() != m.cols()) return false;
  double scale = 1e-300;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      scale = std::max(scale, std::abs(m(i, j)));
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = i + 1; j < m.cols(); ++j)
      if (std::abs(m(i, j) - m(j, i)) > tol * scale) return false;
  return true;
}

}  // namespace ind::test
