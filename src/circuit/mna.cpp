#include "circuit/mna.hpp"

#include <stdexcept>

namespace ind::circuit {
namespace {

// Stamps a two-terminal conductance between nodes a and b (kGround skipped).
void stamp_conductance(la::TripletMatrix& m, NodeId a, NodeId b, double g) {
  if (a >= 0) m.add(static_cast<std::size_t>(a), static_cast<std::size_t>(a), g);
  if (b >= 0) m.add(static_cast<std::size_t>(b), static_cast<std::size_t>(b), g);
  if (a >= 0 && b >= 0) {
    m.add(static_cast<std::size_t>(a), static_cast<std::size_t>(b), -g);
    m.add(static_cast<std::size_t>(b), static_cast<std::size_t>(a), -g);
  }
}

}  // namespace

void stamp_drivers(const std::vector<SwitchedDriver>& drivers,
                   la::TripletMatrix& g, double t) {
  for (const SwitchedDriver& d : drivers) {
    stamp_conductance(g, d.out, d.vdd, d.g_up(t));
    stamp_conductance(g, d.out, d.gnd, d.g_dn(t));
  }
}

Mna::Mna(const Netlist& netlist) : netlist_(&netlist) {
  n_nodes_ = netlist.num_nodes();
  n_inductors_ = netlist.inductors().size();
  n_vsources_ = netlist.vsources().size();
  size_ = n_nodes_ + n_inductors_ + n_vsources_;
}

DescriptorSystem Mna::system(const std::vector<Probe>& probes) const {
  DescriptorSystem sys;
  la::TripletMatrix& g = sys.g;
  la::TripletMatrix& c = sys.c;
  g.resize(size_, size_);
  c.resize(size_, size_);
  const Netlist& nl = *netlist_;

  for (const Resistor& r : nl.resistors())
    stamp_conductance(g, r.a, r.b, 1.0 / r.ohms);
  for (const Capacitor& cap : nl.capacitors())
    stamp_conductance(c, cap.a, cap.b, cap.farads);

  for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
    const Inductor& l = nl.inductors()[k];
    const std::size_t br = inductor_branch(k);
    // KCL: branch current leaves node a, enters node b.
    if (l.a >= 0) g.add(static_cast<std::size_t>(l.a), br, 1.0);
    if (l.b >= 0) g.add(static_cast<std::size_t>(l.b), br, -1.0);
    // Branch equation, negated: L di/dt (+ sum M dj/dt) - (v_a - v_b) = 0,
    // or the K-matrix form di/dt - K (v_a - v_b) = 0 when the inductor
    // belongs to a K group (stamped below).
    if (!nl.inductor_in_kgroup(k)) {
      if (l.a >= 0) g.add(br, static_cast<std::size_t>(l.a), -1.0);
      if (l.b >= 0) g.add(br, static_cast<std::size_t>(l.b), 1.0);
      c.add(br, br, l.henries);
    }
  }
  for (const Mutual& m : nl.mutuals()) {
    if (nl.inductor_in_kgroup(m.i) || nl.inductor_in_kgroup(m.j))
      throw std::logic_error("Mna: mutual on K-group inductor");
    c.add(inductor_branch(m.i), inductor_branch(m.j), m.henries);
    c.add(inductor_branch(m.j), inductor_branch(m.i), m.henries);
  }

  for (const KMatrixGroup& grp : nl.kmatrix_groups()) {
    // Branch rows: dI_m/dt - sum_j K_mj (v_aj - v_bj) = 0.
    for (std::size_t m = 0; m < grp.inductors.size(); ++m)
      c.add(inductor_branch(grp.inductors[m]),
            inductor_branch(grp.inductors[m]), 1.0);
    for (const KMatrixGroup::Entry& e : grp.entries) {
      const std::size_t row = inductor_branch(grp.inductors[e.row]);
      const Inductor& lj = nl.inductors()[grp.inductors[e.col]];
      if (lj.a >= 0) g.add(row, static_cast<std::size_t>(lj.a), -e.value);
      if (lj.b >= 0) g.add(row, static_cast<std::size_t>(lj.b), e.value);
    }
  }

  // Voltage sources: KCL column, negated branch row -(v_a - v_b) = -e(t).
  sys.b.resize(size_, nl.vsources().size() + nl.isources().size());
  std::size_t col = 0;
  for (std::size_t k = 0; k < nl.vsources().size(); ++k, ++col) {
    const VSource& v = nl.vsources()[k];
    const std::size_t br = vsource_branch(k);
    if (v.a >= 0) {
      g.add(static_cast<std::size_t>(v.a), br, 1.0);
      g.add(br, static_cast<std::size_t>(v.a), -1.0);
    }
    if (v.b >= 0) {
      g.add(static_cast<std::size_t>(v.b), br, -1.0);
      g.add(br, static_cast<std::size_t>(v.b), 1.0);
    }
    sys.b.add(br, col, -1.0);
    sys.inputs.push_back(v.waveform);
  }
  // Current sources: current i(t) leaves node a and enters node b.
  for (const ISource& src : nl.isources()) {
    if (src.a >= 0) sys.b.add(static_cast<std::size_t>(src.a), col, -1.0);
    if (src.b >= 0) sys.b.add(static_cast<std::size_t>(src.b), col, 1.0);
    sys.inputs.push_back(src.waveform);
    ++col;
  }

  if (gmin > 0.0)
    for (std::size_t i = 0; i < n_nodes_; ++i) g.add(i, i, gmin);

  sys.drivers = nl.drivers();
  for (const Probe& p : probes) sys.outputs.push_back(output(p));
  return sys;
}

Output Mna::output(const Probe& p) const {
  const Netlist& nl = *netlist_;
  std::size_t count = 0;
  switch (p.kind) {
    case ProbeKind::NodeVoltage: count = n_nodes_; break;
    case ProbeKind::InductorCurrent: count = n_inductors_; break;
    case ProbeKind::VSourceCurrent: count = n_vsources_; break;
    case ProbeKind::DriverPullUpCurrent:
    case ProbeKind::DriverPullDownCurrent:
      count = nl.drivers().size();
      break;
  }
  // Rejects an index that names no element of its kind, so an output never
  // reads another unknown's slot (or past x) at run time.
  if (p.index >= count)
    throw std::out_of_range("transient: probe '" + p.name + "' index " +
                            std::to_string(p.index) + " out of range (" +
                            std::to_string(count) + " of its kind)");

  Output out;
  out.name = p.name;
  // y = g(t) (v_a - v_b) for a driver's rail current.
  auto rail = [&](NodeId a, NodeId b, Output::Gain gain) {
    if (a >= 0) out.terms.emplace_back(static_cast<std::size_t>(a), 1.0);
    if (b >= 0) out.terms.emplace_back(static_cast<std::size_t>(b), -1.0);
    out.gain = gain;
    out.driver = p.index;
  };
  switch (p.kind) {
    case ProbeKind::NodeVoltage: out.terms = {{p.index, 1.0}}; break;
    case ProbeKind::InductorCurrent:
      out.terms = {{inductor_branch(p.index), 1.0}};
      break;
    case ProbeKind::VSourceCurrent:
      out.terms = {{vsource_branch(p.index), 1.0}};
      break;
    case ProbeKind::DriverPullUpCurrent: {
      const SwitchedDriver& d = nl.drivers()[p.index];
      rail(d.vdd, d.out, Output::Gain::PullUp);
      break;
    }
    case ProbeKind::DriverPullDownCurrent: {
      const SwitchedDriver& d = nl.drivers()[p.index];
      rail(d.out, d.gnd, Output::Gain::PullDown);
      break;
    }
  }
  return out;
}

}  // namespace ind::circuit
