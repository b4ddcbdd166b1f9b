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

Mna::Mna(const Netlist& netlist) : netlist_(&netlist) {
  n_nodes_ = netlist.num_nodes();
  n_inductors_ = netlist.inductors().size();
  n_vsources_ = netlist.vsources().size();
  size_ = n_nodes_ + n_inductors_ + n_vsources_;
}

void Mna::stamp_static(la::TripletMatrix& g, la::TripletMatrix& c) const {
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
    // Branch equation: v_a - v_b - L di/dt (- sum M dj/dt) = 0, or the
    // K-matrix form K (v_a - v_b) - di/dt = 0 when the inductor belongs to
    // a K group (stamped below).
    if (!nl.inductor_in_kgroup(k)) {
      if (l.a >= 0) g.add(br, static_cast<std::size_t>(l.a), 1.0);
      if (l.b >= 0) g.add(br, static_cast<std::size_t>(l.b), -1.0);
      c.add(br, br, -l.henries);
    }
  }
  for (const Mutual& m : nl.mutuals()) {
    if (nl.inductor_in_kgroup(m.i) || nl.inductor_in_kgroup(m.j))
      throw std::logic_error("Mna: mutual on K-group inductor");
    c.add(inductor_branch(m.i), inductor_branch(m.j), -m.henries);
    c.add(inductor_branch(m.j), inductor_branch(m.i), -m.henries);
  }

  for (const KMatrixGroup& grp : nl.kmatrix_groups()) {
    // Branch rows: sum_j K_mj (v_aj - v_bj) - dI_m/dt = 0.
    for (std::size_t m = 0; m < grp.inductors.size(); ++m)
      c.add(inductor_branch(grp.inductors[m]),
            inductor_branch(grp.inductors[m]), -1.0);
    for (const KMatrixGroup::Entry& e : grp.entries) {
      const std::size_t row = inductor_branch(grp.inductors[e.row]);
      const Inductor& lj = nl.inductors()[grp.inductors[e.col]];
      if (lj.a >= 0) g.add(row, static_cast<std::size_t>(lj.a), e.value);
      if (lj.b >= 0) g.add(row, static_cast<std::size_t>(lj.b), -e.value);
    }
  }

  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const VSource& v = nl.vsources()[k];
    const std::size_t br = vsource_branch(k);
    if (v.a >= 0) {
      g.add(static_cast<std::size_t>(v.a), br, 1.0);
      g.add(br, static_cast<std::size_t>(v.a), 1.0);
    }
    if (v.b >= 0) {
      g.add(static_cast<std::size_t>(v.b), br, -1.0);
      g.add(br, static_cast<std::size_t>(v.b), -1.0);
    }
  }

  if (gmin > 0.0)
    for (std::size_t i = 0; i < n_nodes_; ++i) g.add(i, i, gmin);
}

void Mna::stamp_drivers(la::TripletMatrix& g, double t) const {
  for (const SwitchedDriver& d : netlist_->drivers()) {
    stamp_conductance(g, d.out, d.vdd, d.g_up(t));
    stamp_conductance(g, d.out, d.gnd, d.g_dn(t));
  }
}

void Mna::rhs(double t, la::Vector& out) const {
  out.assign(size_, 0.0);
  for (const ISource& src : netlist_->isources()) {
    const double i = src.waveform(t);
    if (src.a >= 0) out[static_cast<std::size_t>(src.a)] -= i;
    if (src.b >= 0) out[static_cast<std::size_t>(src.b)] += i;
  }
  for (std::size_t k = 0; k < netlist_->vsources().size(); ++k)
    out[vsource_branch(k)] = netlist_->vsources()[k].waveform(t);
}

void Mna::apply_g(const la::CscMatrix& g_static, double t, const la::Vector& x,
                  la::Vector& y) const {
  const la::Vector gx = g_static.apply(x);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += gx[i];
  // Driver conductances applied directly (few entries, avoids re-compressing).
  for (const SwitchedDriver& d : netlist_->drivers()) {
    for (const auto& [node_a, node_b, g] :
         {std::tuple{d.out, d.vdd, d.g_up(t)}, std::tuple{d.out, d.gnd, d.g_dn(t)}}) {
      const double va = node_a >= 0 ? x[static_cast<std::size_t>(node_a)] : 0.0;
      const double vb = node_b >= 0 ? x[static_cast<std::size_t>(node_b)] : 0.0;
      const double i = g * (va - vb);
      if (node_a >= 0) y[static_cast<std::size_t>(node_a)] += i;
      if (node_b >= 0) y[static_cast<std::size_t>(node_b)] -= i;
    }
  }
}

}  // namespace ind::circuit
