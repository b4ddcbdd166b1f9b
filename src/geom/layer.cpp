#include "geom/layer.hpp"

#include <stdexcept>
#include <string>

namespace ind::geom {

const Layer& Technology::layer(int index) const {
  if (index < 1 || static_cast<std::size_t>(index) > layers.size())
    throw std::out_of_range("Technology::layer: no metal-" +
                            std::to_string(index));
  return layers[static_cast<std::size_t>(index - 1)];
}

Technology default_tech() {
  Technology t;
  t.epsilon_r = 3.9;
  t.via_resistance = 1.0;
  t.substrate_z = 0.0;

  // index, z_bottom, thickness, sheet-rho (ohm/sq), preferred, gap below
  // Thin local layers, progressively thicker global layers; alternating
  // preferred directions as in standard routing stacks.
  struct Row {
    double thickness, sheet, gap;
    Axis dir;
  };
  const Row rows[] = {
      {um(0.30), 0.12, um(0.60), Axis::X},  // M1
      {um(0.35), 0.10, um(0.50), Axis::Y},  // M2
      {um(0.40), 0.08, um(0.55), Axis::X},  // M3
      {um(0.55), 0.05, um(0.60), Axis::Y},  // M4
      {um(0.90), 0.03, um(0.70), Axis::X},  // M5
      {um(1.20), 0.02, um(0.80), Axis::Y},  // M6
  };
  double z = t.substrate_z;
  int idx = 1;
  for (const Row& r : rows) {
    z += r.gap;
    Layer l;
    l.index = idx++;
    l.z_bottom = z;
    l.thickness = r.thickness;
    l.sheet_resistance = r.sheet;
    l.preferred = r.dir;
    l.dielectric_below = r.gap;
    t.layers.push_back(l);
    z += r.thickness;
  }
  return t;
}

}  // namespace ind::geom
