#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "robust/validate.hpp"
#include "spice_import.hpp"

namespace ind::robust {
namespace {

using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

ValidationReport validate(const Netlist& nl) {
  ValidationReport report;
  const std::size_t n = nl.num_nodes();

  // Count conductive (DC-path) and capacitive touches per node.
  std::vector<int> conductive(n, 0), capacitive(n, 0);
  auto touch = [&](std::vector<int>& count, NodeId node) {
    if (node >= 0 && static_cast<std::size_t>(node) < n)
      ++count[static_cast<std::size_t>(node)];
  };
  for (const auto& r : nl.resistors()) {
    touch(conductive, r.a);
    touch(conductive, r.b);
    if (r.ohms <= 0.0)
      report.add(Severity::Error, "nonpositive-resistance",
                 "resistor with R = " + num(r.ohms) + " ohm",
                 "nodes " + std::to_string(r.a) + "/" + std::to_string(r.b));
  }
  for (const auto& l : nl.inductors()) {
    touch(conductive, l.a);
    touch(conductive, l.b);
    if (l.henries <= 0.0)
      report.add(Severity::Error, "nonpositive-inductance",
                 "inductor with L = " + num(l.henries) + " H",
                 "nodes " + std::to_string(l.a) + "/" + std::to_string(l.b));
  }
  for (const auto& v : nl.vsources()) {
    touch(conductive, v.a);
    touch(conductive, v.b);
  }
  for (const auto& d : nl.drivers()) {
    touch(conductive, d.out);
    touch(conductive, d.vdd);
    touch(conductive, d.gnd);
  }
  for (const auto& c : nl.capacitors()) {
    touch(capacitive, c.a);
    touch(capacitive, c.b);
    if (c.farads < 0.0)
      report.add(Severity::Error, "negative-capacitance",
                 "capacitor with C = " + num(c.farads) + " F",
                 "nodes " + std::to_string(c.a) + "/" + std::to_string(c.b));
  }
  // Current sources need a return path but do not create one.
  std::vector<int> injected(n, 0);
  for (const auto& i : nl.isources()) {
    touch(injected, i.a);
    touch(injected, i.b);
  }

  for (std::size_t k = 0; k < n; ++k) {
    if (conductive[k] == 0 && capacitive[k] == 0 && injected[k] == 0) {
      report.add(Severity::Error, "floating-node",
                 "node is not connected to any element",
                 "node " + std::to_string(k));
    } else if (conductive[k] == 0 && injected[k] > 0) {
      report.add(Severity::Error, "no-dc-path",
                 "current injection into a node with no conductive path",
                 "node " + std::to_string(k));
    } else if (conductive[k] == 0) {
      report.add(Severity::Warning, "no-dc-path",
                 "node reaches the rest of the circuit only through "
                 "capacitors (DC operating point relies on gmin)",
                 "node " + std::to_string(k));
    }
  }

  // Mutual coupling must satisfy |M| <= sqrt(Li Lj)  (|k| <= 1); violating
  // pairs make the inductance block indefinite (Section 4's stability trap).
  for (const auto& m : nl.mutuals()) {
    const double li = nl.inductors()[m.i].henries;
    const double lj = nl.inductors()[m.j].henries;
    const double bound = std::sqrt(li * lj);
    if (bound <= 0.0 || !(std::abs(m.henries) <= bound * (1.0 + 1e-9)))
      report.add(
          Severity::Error, "k-over-unity",
          "mutual inductance M = " + num(m.henries) + " H exceeds sqrt(Li*Lj)"
          " = " + num(bound) + " H (|k| = " +
              num(bound > 0.0 ? std::abs(m.henries) / bound
                              : std::numeric_limits<double>::infinity()) +
              ")",
          "inductors " + std::to_string(m.i) + " and " + std::to_string(m.j));
  }

  return report;
}

}  // namespace ind::robust
