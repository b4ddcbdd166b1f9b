// Metal layer stack / technology description.
//
// The paper's workloads live on a multi-layer interconnect stack: gates draw
// power from the lowest metal layer, external supplies arrive at the top
// layer through pads, and global signals (clock) route on thick upper
// layers. This module describes that stack; `default_tech()` is a
// representative 6-metal process of the paper's era (c. 2000, 0.18 um).
#pragma once

#include <cstddef>
#include <vector>

namespace ind::geom {

/// Length helper: micrometres to metres (all geometry is stored in metres).
constexpr double um(double x) { return x * 1e-6; }

/// Preferred routing direction of a metal layer.
enum class Axis { X, Y };

constexpr Axis orthogonal(Axis a) { return a == Axis::X ? Axis::Y : Axis::X; }

struct Layer {
  int index = 0;               ///< metal level, 1 = lowest
  double z_bottom = 0.0;       ///< bottom of the metal, metres above substrate
  double thickness = 0.0;      ///< metal thickness, metres
  double sheet_resistance = 0; ///< ohm/square
  Axis preferred = Axis::X;    ///< preferred routing direction
  double dielectric_below = 0; ///< dielectric gap to the layer (or substrate) below, metres

  double z_center() const { return z_bottom + 0.5 * thickness; }
  double z_top() const { return z_bottom + thickness; }
};

/// Full stack plus dielectric and via parameters.
struct Technology {
  std::vector<Layer> layers;     ///< layers[0] is metal-1
  double epsilon_r = 3.9;        ///< oxide relative permittivity
  double via_resistance = 1.0;   ///< ohms per via cut
  double substrate_z = 0.0;      ///< ground reference plane height

  const Layer& layer(int index) const;  ///< 1-based metal index
  std::size_t num_layers() const { return layers.size(); }
};

/// Representative 6-layer copper/aluminium stack circa 2000 (0.18 um node):
/// thin lower layers (high sheet-rho) for local routing, thick low-resistance
/// top layers for global clock and power distribution.
Technology default_tech();

/// Physical constants.
inline constexpr double kMu0 = 4e-7 * 3.14159265358979323846;  // H/m
inline constexpr double kEps0 = 8.8541878128e-12;              // F/m

}  // namespace ind::geom
