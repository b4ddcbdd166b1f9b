#include "circuit/ac.hpp"

#include <cmath>
#include <stdexcept>

#include "la/lu.hpp"
#include "robust/recovery.hpp"
#include "runtime/metrics.hpp"

namespace ind::circuit {
namespace {

// One frequency point over pre-assembled stamps, so the sweep shares a
// single Mna + G/C pattern instead of re-deriving them every point.
AcResult solve_stamped(const Mna& mna, const la::TripletMatrix& g,
                       const la::TripletMatrix& c,
                       const AcExcitation& excitation, double omega) {
  runtime::ScopedTimer timer("solve.ac");
  const Netlist& netlist = mna.netlist();
  const std::size_t n = mna.size();

  la::CMatrix a(n, n);
  for (const auto& e : g.entries()) a(e.row, e.col) += e.value;
  const la::Complex jw{0.0, omega};
  for (const auto& e : c.entries()) a(e.row, e.col) += jw * e.value;

  la::CVector b(n, la::Complex{});
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

  robust::SolveReport report;
  la::CLU lu = robust::factor_dense_with_recovery(a, report, "ac");
  la::CVector x(n, la::Complex{});
  if (lu.size() > 0) {
    x = lu.solve(b);
    if (!robust::all_finite(x)) {
      report.raise_status(robust::SolveStatus::Failed);
      report.detail = "ac: non-finite solution";
      x.assign(n, la::Complex{});
    } else {
      // Relative residual ||Ax - b|| / ||b|| of the (possibly regularised)
      // solve against the ORIGINAL matrix, so gmin fallbacks show their
      // true perturbation.
      double rnorm = 0.0, bnorm = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        la::Complex ri = -b[i];
        for (std::size_t j = 0; j < n; ++j) ri += a(i, j) * x[j];
        rnorm += std::norm(ri);
        bnorm += std::norm(b[i]);
      }
      report.residual_norm =
          bnorm > 0.0 ? std::sqrt(rnorm / bnorm) : std::sqrt(rnorm);
    }
  }
  report.record("ac");
  AcResult result{std::move(x), mna, std::move(report)};
  return result;
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
  std::vector<AcResult> sweep;
  sweep.reserve(omegas.size());
  for (const double omega : omegas)
    sweep.push_back(solve_stamped(mna, g, c, excitation, omega));
  return sweep;
}

}  // namespace ind::circuit
