#include "circuit/ac.hpp"

#include <cmath>
#include <stdexcept>

#include "la/lu.hpp"
#include "la/sparse.hpp"
#include "robust/recovery.hpp"
#include "runtime/metrics.hpp"

namespace ind::circuit {
namespace {

// The unit phasor excitation: the source's column of B (voltage sources
// first, then current sources), real.
la::CVector excitation_rhs(const Mna& mna, const DescriptorSystem& sys,
                           const AcExcitation& excitation) {
  const std::size_t nv = mna.netlist().vsources().size();
  const bool vsource = excitation.kind == AcExcitation::Kind::VSource;
  if (excitation.index >=
      (vsource ? nv : mna.netlist().isources().size()))
    throw std::out_of_range(vsource ? "ac_sweep: vsource index"
                                    : "ac_sweep: isource index");
  const std::size_t col = vsource ? excitation.index : nv + excitation.index;
  la::CVector b(mna.size(), la::Complex{});
  for (const auto& e : sys.b.entries())
    if (e.col == col) b[e.row] += e.value;
  return b;
}

}  // namespace

std::vector<AcResult> ac_sweep(const Netlist& netlist,
                               const AcExcitation& excitation,
                               const std::vector<double>& omegas,
                               double driver_time) {
  Mna mna(netlist);
  DescriptorSystem sys = mna.system();
  la::TripletMatrix& g = sys.g;
  const la::TripletMatrix& c = sys.c;
  stamp_drivers(sys.drivers, g, driver_time);
  const std::size_t n = mna.size();
  // An inductor branch row's diagonal is jwL: swap its real and imaginary
  // equations so the doubled form carries it on the diagonal.
  std::vector<std::size_t> branch_rows;
  for (std::size_t k = 0; k < netlist.inductors().size(); ++k)
    branch_rows.push_back(mna.inductor_branch(k));
  robust::ComplexSparseFactor factor(n, branch_rows);
  const la::Vector b2 = factor.doubled_rhs(excitation_rhs(mna, sys, excitation));
  double bnorm = 0.0;
  for (const double v : b2) bnorm += v * v;

  std::vector<AcResult> sweep;
  sweep.reserve(omegas.size());
  for (const double omega : omegas) {
    runtime::ScopedTimer timer("solve.ac");
    // G + jwC in the doubled form. Every G and C entry is stamped, zeros
    // included, so the pattern is the same at every point: the held factor
    // keeps one symbolic analysis for the whole sweep.
    la::TripletMatrix t(2 * n, 2 * n);
    for (const auto& e : g.entries()) factor.add_real(t, e.row, e.col, e.value);
    for (const auto& e : c.entries())
      factor.add_imag(t, e.row, e.col, omega * e.value);
    const la::CscMatrix a(t);

    robust::SolveReport report;
    factor.refactor(a, report, "ac");
    la::CVector x(n, la::Complex{});
    if (factor.usable()) {
      const robust::GuardedSparseFactor& f = factor.doubled();
      const la::Vector x2 = f.solve(b2);
      if (!robust::all_finite(x2)) {
        report.raise_status(robust::SolveStatus::Failed);
        report.detail = "ac: non-finite solution";
      } else {
        for (std::size_t i = 0; i < n; ++i) x[i] = {x2[i], x2[i + n]};
        report.condition_estimate =
            la::norm1(a) * la::inverse_norm1_estimate<double>(
                               2 * n,
                               [&](const la::Vector& v) { return f.solve(v); },
                               [&](const la::Vector& v) {
                                 return f.solve_transposed(v);
                               });
        // Relative residual ||Ax - b|| / ||b|| against the unshifted
        // matrix, so gmin fallbacks show their true perturbation.
        const la::Vector ax = a.apply(x2);
        double rnorm = 0.0;
        for (std::size_t i = 0; i < 2 * n; ++i)
          rnorm += (ax[i] - b2[i]) * (ax[i] - b2[i]);
        report.residual_norm =
            bnorm > 0.0 ? std::sqrt(rnorm / bnorm) : std::sqrt(rnorm);
      }
    }
    report.record("ac");
    sweep.push_back({std::move(x), mna, std::move(report)});
  }
  return sweep;
}

}  // namespace ind::circuit
