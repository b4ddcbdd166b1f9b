#include "mor/reduced_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace ind::mor {
namespace {

// Distinct driver-attached unknowns in order of first appearance.
std::vector<std::size_t> driver_ports(
    const std::vector<circuit::SwitchedDriver>& drivers) {
  std::vector<std::size_t> ports;
  for (const circuit::SwitchedDriver& d : drivers)
    for (const circuit::NodeId node : {d.out, d.vdd, d.gnd}) {
      const auto u = static_cast<std::size_t>(node);
      if (node >= 0 && std::find(ports.begin(), ports.end(), u) == ports.end())
        ports.push_back(u);
    }
  return ports;
}

}  // namespace

la::Matrix port_inputs(const circuit::DescriptorSystem& full) {
  const std::vector<std::size_t> ports = driver_ports(full.drivers);
  const std::size_t p_src = full.b.cols();
  la::Matrix b(full.size(), p_src + ports.size());
  for (const auto& e : full.b.entries()) b(e.row, e.col) += e.value;
  for (std::size_t k = 0; k < ports.size(); ++k) b(ports[k], p_src + k) = 1.0;
  return b;
}

la::Matrix output_selectors(const circuit::DescriptorSystem& full) {
  la::Matrix l(full.size(), full.outputs.size());
  for (std::size_t m = 0; m < full.outputs.size(); ++m) {
    const circuit::Output& o = full.outputs[m];
    if (o.gain != circuit::Output::Gain::One)
      throw std::invalid_argument("output_selectors: output '" + o.name +
                                  "' is a driver current");
    for (const auto& [i, w] : o.terms) l(i, m) += w;
  }
  return l;
}

circuit::DescriptorSystem reduced_system(
    const ReducedModel& model, const circuit::DescriptorSystem& full) {
  const std::vector<std::size_t> ports = driver_ports(full.drivers);
  const std::size_t q = model.order(), p = ports.size();
  const std::size_t p_src = full.inputs.size();
  if (model.b.cols() != p_src + p || model.l.cols() != full.outputs.size())
    throw std::invalid_argument(
        "reduced_system: model inputs/outputs do not match the system's "
        "port_inputs/output_selectors");

  circuit::DescriptorSystem sys;
  const std::size_t n = q + 2 * p;
  sys.g.resize(n, n);
  sys.c.resize(n, n);
  sys.b.resize(n, p_src);
  for (std::size_t i = 0; i < q; ++i)
    for (std::size_t j = 0; j < q; ++j) {
      if (model.g(i, j) != 0.0) sys.g.add(i, j, model.g(i, j));
      if (model.c(i, j) != 0.0) sys.c.add(i, j, model.c(i, j));
    }
  for (std::size_t i = 0; i < q; ++i)
    for (std::size_t s = 0; s < p_src; ++s)
      if (model.b(i, s) != 0.0) sys.b.add(i, s, model.b(i, s));
  for (std::size_t k = 0; k < p; ++k) {
    const std::size_t v = q + k, cur = q + p + k;
    sys.g.add(v, cur, 1.0);    // KCL: i leaves the port into the model
    sys.g.add(cur, v, -1.0);   // branch row: Prᵀz - v = 0
    for (std::size_t i = 0; i < q; ++i) {
      const double w = model.b(i, p_src + k);
      if (w == 0.0) continue;
      sys.g.add(i, cur, -w);
      sys.g.add(cur, i, w);
    }
  }
  sys.inputs = full.inputs;

  auto port_unknown = [&](circuit::NodeId node) -> circuit::NodeId {
    if (node < 0) return circuit::kGround;
    const auto it = std::find(ports.begin(), ports.end(),
                              static_cast<std::size_t>(node));
    return static_cast<circuit::NodeId>(q + (it - ports.begin()));
  };
  sys.drivers = full.drivers;
  for (circuit::SwitchedDriver& d : sys.drivers) {
    d.out = port_unknown(d.out);
    d.vdd = port_unknown(d.vdd);
    d.gnd = port_unknown(d.gnd);
  }
  for (std::size_t m = 0; m < full.outputs.size(); ++m) {
    circuit::Output o;
    o.name = full.outputs[m].name;
    for (std::size_t i = 0; i < q; ++i)
      if (model.l(i, m) != 0.0) o.terms.emplace_back(i, model.l(i, m));
    sys.outputs.push_back(std::move(o));
  }
  return sys;
}

}  // namespace ind::mor
