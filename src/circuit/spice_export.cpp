#include "circuit/spice_export.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "la/lu.hpp"

namespace ind::circuit {
namespace {

std::string node_name(NodeId n) {
  return n < 0 ? "0" : "n" + std::to_string(n);
}

void write_pwl(std::ostream& os, const Pwl& w) {
  if (w.points().size() <= 1) {
    os << "DC " << (w.points().empty() ? 0.0 : w.points().front().second);
    return;
  }
  os << "PWL(";
  bool first = true;
  for (const auto& [t, v] : w.points()) {
    if (!first) os << ' ';
    os << t << ' ' << v;
    first = false;
  }
  os << ')';
}

}  // namespace

void write_spice(std::ostream& os, const Netlist& netlist,
                 const SpiceExportOptions& opts) {
  os << "* " << opts.title << "\n";

  std::size_t idx = 0;
  for (const Resistor& r : netlist.resistors())
    os << "R" << idx++ << ' ' << node_name(r.a) << ' ' << node_name(r.b)
       << ' ' << r.ohms << "\n";
  idx = 0;
  for (const Capacitor& c : netlist.capacitors())
    os << "C" << idx++ << ' ' << node_name(c.a) << ' ' << node_name(c.b)
       << ' ' << c.farads << "\n";
  for (std::size_t k = 0; k < netlist.inductors().size(); ++k) {
    const Inductor& l = netlist.inductors()[k];
    os << "L" << k << ' ' << node_name(l.a) << ' ' << node_name(l.b) << ' '
       << l.henries << "\n";
  }

  // Mutual coupling: K cards with the coupling coefficient clamped into the
  // physical range (round-off can push |M| marginally past sqrt(L1 L2)).
  idx = 0;
  auto write_k = [&](std::size_t i, std::size_t j, double m) {
    const double li = netlist.inductors()[i].henries;
    const double lj = netlist.inductors()[j].henries;
    double coeff = m / std::sqrt(li * lj);
    coeff = std::clamp(coeff, -0.999999, 0.999999);
    os << "K" << idx++ << " L" << i << " L" << j << ' ' << coeff << "\n";
  };
  for (const Mutual& m : netlist.mutuals()) write_k(m.i, m.j, m.henries);

  // K-matrix groups: either refuse, or expand via L = K^-1 into standard
  // self + mutual cards (rewriting the member self inductances).
  if (!netlist.kmatrix_groups().empty()) {
    if (!opts.expand_kmatrix_groups)
      throw std::invalid_argument(
          "write_spice: netlist has K-matrix groups; set "
          "expand_kmatrix_groups to export them as coupled inductors");
    for (const KMatrixGroup& grp : netlist.kmatrix_groups()) {
      const std::size_t n = grp.inductors.size();
      la::Matrix k(n, n);
      for (const KMatrixGroup::Entry& e : grp.entries) k(e.row, e.col) = e.value;
      const la::Matrix l = la::inverse(k);
      // Re-emit the member inductors with the recovered self values (the
      // originals were bypassed by the K rows), then the mutual cards.
      for (std::size_t a = 0; a < n; ++a) {
        const Inductor& ind = netlist.inductors()[grp.inductors[a]];
        os << "LK" << grp.inductors[a] << ' ' << node_name(ind.a) << ' '
           << node_name(ind.b) << ' ' << l(a, a) << "\n";
      }
      for (std::size_t a = 0; a < n; ++a)
        for (std::size_t b = a + 1; b < n; ++b) {
          if (l(a, b) == 0.0) continue;
          double coeff = l(a, b) / std::sqrt(l(a, a) * l(b, b));
          coeff = std::clamp(coeff, -0.999999, 0.999999);
          os << "K" << idx++ << " LK" << grp.inductors[a] << " LK"
             << grp.inductors[b] << ' ' << coeff << "\n";
        }
    }
  }

  for (std::size_t k = 0; k < netlist.vsources().size(); ++k) {
    const VSource& v = netlist.vsources()[k];
    os << "V" << k << ' ' << node_name(v.a) << ' ' << node_name(v.b) << ' ';
    write_pwl(os, v.waveform);
    os << "\n";
  }
  for (std::size_t k = 0; k < netlist.isources().size(); ++k) {
    const ISource& i = netlist.isources()[k];
    os << "I" << k << ' ' << node_name(i.a) << ' ' << node_name(i.b) << ' ';
    write_pwl(os, i.waveform);
    os << "\n";
  }

  // Switched drivers: behavioural current sources whose conductance follows
  // a PWL control voltage (ngspice B-source syntax).
  for (std::size_t k = 0; k < netlist.drivers().size(); ++k) {
    const SwitchedDriver& d = netlist.drivers()[k];
    auto sample_ramp = [&](auto g_of_t, const std::string& ctrl) {
      os << "V" << ctrl << ' ' << ctrl << " 0 PWL(0 " << g_of_t(0.0);
      const double t0 = d.start;
      const double t1 = d.start + d.slew;
      for (double t = t0; t <= t1 + 0.5 * opts.driver_sample_step;
           t += opts.driver_sample_step)
        os << ' ' << std::max(t, 1e-15) << ' ' << g_of_t(t);
      os << ' ' << t1 + 1.0 << ' ' << g_of_t(t1 + 1.0) << ")\n";
    };
    const std::string up = "ctrlu" + std::to_string(k);
    const std::string dn = "ctrld" + std::to_string(k);
    sample_ramp([&](double t) { return d.g_up(t); }, up);
    sample_ramp([&](double t) { return d.g_dn(t); }, dn);
    os << "BDRVU" << k << ' ' << node_name(d.vdd) << ' ' << node_name(d.out)
       << " I=V(" << up << ")*(V(" << node_name(d.vdd) << ")-V("
       << node_name(d.out) << "))\n";
    os << "BDRVD" << k << ' ' << node_name(d.out) << ' ' << node_name(d.gnd)
       << " I=V(" << dn << ")*(V(" << node_name(d.out) << ")-V("
       << node_name(d.gnd) << "))\n";
  }
  os << ".end\n";
}

}  // namespace ind::circuit
