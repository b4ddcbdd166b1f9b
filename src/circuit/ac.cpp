#include "circuit/ac.hpp"

#include <cmath>
#include <stdexcept>

#include "la/lu.hpp"
#include "la/sparse.hpp"
#include "robust/recovery.hpp"
#include "runtime/metrics.hpp"

namespace ind::circuit {
namespace {

// The unit phasor excitation: real, at one source's rows.
la::CVector excitation_rhs(const Mna& mna, const AcExcitation& excitation) {
  const Netlist& netlist = mna.netlist();
  la::CVector b(mna.size(), la::Complex{});
  switch (excitation.kind) {
    case AcExcitation::Kind::VSource:
      if (excitation.index >= netlist.vsources().size())
        throw std::out_of_range("ac_sweep: vsource index");
      b[mna.vsource_branch(excitation.index)] = 1.0;
      break;
    case AcExcitation::Kind::ISource: {
      if (excitation.index >= netlist.isources().size())
        throw std::out_of_range("ac_sweep: isource index");
      const ISource& src = netlist.isources()[excitation.index];
      if (src.a >= 0) b[static_cast<std::size_t>(src.a)] -= 1.0;
      if (src.b >= 0) b[static_cast<std::size_t>(src.b)] += 1.0;
      break;
    }
  }
  return b;
}

}  // namespace

std::vector<AcResult> ac_sweep(const Netlist& netlist,
                               const AcExcitation& excitation,
                               const std::vector<double>& omegas,
                               double driver_time) {
  Mna mna(netlist);
  la::TripletMatrix g, c;
  mna.stamp_static(g, c);
  mna.stamp_drivers(g, driver_time);
  const std::size_t n = mna.size();
  // An inductor branch row's diagonal is -jwL: swap its real and imaginary
  // equations so the doubled form carries it on the diagonal.
  std::vector<std::size_t> branch_rows;
  for (std::size_t k = 0; k < netlist.inductors().size(); ++k)
    branch_rows.push_back(mna.inductor_branch(k));
  robust::ComplexSparseFactor factor(n, branch_rows);
  const la::Vector b2 = factor.doubled_rhs(excitation_rhs(mna, excitation));
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
