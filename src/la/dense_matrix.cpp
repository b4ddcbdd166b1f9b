#include "la/dense_matrix.hpp"

#include <cmath>

namespace ind::la {

double dot(const Vector& a, const Vector& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

}  // namespace ind::la
