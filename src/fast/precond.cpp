#include "fast/precond.hpp"

#include "la/sparse.hpp"
#include "runtime/metrics.hpp"

namespace ind::fast {

ComplexSparseFactor::ComplexSparseFactor(
    std::size_t m, const std::vector<ComplexTriplet>& entries,
    robust::SolveReport& report, std::string_view where,
    std::size_t dense_fallback_limit)
    : m_(m) {
  runtime::ScopedTimer timer("fast.precond_factor");
  // Real-equivalent doubled system [[Re, -Im], [Im, Re]]: the real SparseLu
  // (AMD + symbolic/numeric split, bitwise contract) factors complex
  // operators without a complex code path.
  la::TripletMatrix t(2 * m, 2 * m);
  for (const ComplexTriplet& e : entries) {
    const double re = e.v.real(), im = e.v.imag();
    if (re != 0.0) {
      t.add(e.i, e.j, re);
      t.add(e.i + m, e.j + m, re);
    }
    if (im != 0.0) {
      t.add(e.i, e.j + m, -im);
      t.add(e.i + m, e.j, im);
    }
  }
  const la::CscMatrix a(t);
  factor_ = robust::factor_sparse_with_recovery(a, report, where,
                                                dense_fallback_limit);
}

la::CVector ComplexSparseFactor::solve(const la::CVector& b) const {
  la::Vector rb(2 * m_);
  for (std::size_t i = 0; i < m_; ++i) {
    rb[i] = b[i].real();
    rb[i + m_] = b[i].imag();
  }
  const la::Vector rx = factor_.solve(rb);
  la::CVector x(m_);
  for (std::size_t i = 0; i < m_; ++i) x[i] = {rx[i], rx[i + m_]};
  return x;
}

}  // namespace ind::fast
