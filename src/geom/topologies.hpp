// Parameterised layout generators for every topology the paper discusses.
//
// The paper's experiments run on proprietary Motorola layouts (a
// microprocessor global clock net over a multi-layer power grid). These
// generators are the documented substitution: they produce the same
// topology *classes* with exposed knobs (grid pitch, strap width, tree
// depth, pad count) so each experiment exercises the identical code paths.
#pragma once

#include <string>
#include <vector>

#include "geom/layout.hpp"

namespace ind::geom {

// ---------------------------------------------------------------------------
// Power / ground grid (Sections 2-3)
// ---------------------------------------------------------------------------

struct PowerGridSpec {
  double extent_x = um(1000.0);
  double extent_y = um(1000.0);
  Point origin{0.0, 0.0};
  double pitch = um(100.0);        ///< pitch between straps of the same net
  int horizontal_layer = 5;        ///< straps along X
  int vertical_layer = 6;          ///< straps along Y
  double strap_width = um(6.0);
  int pads_per_side = 2;           ///< supply pads per chip side (VDD+GND alternating)
  double pad_resistance = 0.05;    ///< ohms
  double pad_inductance = 0.5e-9;  ///< henries (package lead + bump)
};

struct PowerGridNets {
  int vdd = -1;
  int gnd = -1;
};

/// Adds an interleaved VDD/GND mesh on two layers with vias at same-net
/// crossings and package pads around the perimeter of the top layer.
PowerGridNets add_power_grid(Layout& layout, const PowerGridSpec& spec);

// ---------------------------------------------------------------------------
// Global clock H-tree (Section 6 workload)
// ---------------------------------------------------------------------------

struct ClockTreeSpec {
  int levels = 3;               ///< recursion depth; 4^levels sinks
  Point center{um(500), um(500)};
  double span = um(800.0);      ///< full horizontal extent of the top H
  int horizontal_layer = 5;
  int vertical_layer = 6;
  double trunk_width = um(8.0);
  double taper = 0.7;           ///< width multiplier per level (>= min width)
  double min_width = um(1.0);
  double sink_cap = 50e-15;     ///< sector-buffer input capacitance
  /// Deterministic per-sink load spread (fraction of sink_cap): real sector
  /// buffers differ in size, which is where clock skew comes from in an
  /// otherwise symmetric H-tree.
  double sink_cap_variation = 0.0;
  double driver_res = 10.0;     ///< root clock driver strength
  double slew = 50e-12;
  std::string net_name = "clk";
};

/// Adds an H-tree with a root driver at the centre and a receiver (sector
/// buffer) at every leaf. Returns the clock net id.
int add_clock_htree(Layout& layout, const ClockTreeSpec& spec);

// ---------------------------------------------------------------------------
// Parallel bus (crosstalk / design-technique workloads)
// ---------------------------------------------------------------------------

struct BusSpec {
  int bits = 4;
  double length = um(1000.0);
  double width = um(1.0);
  double spacing = um(1.0);     ///< edge-to-edge spacing between tracks
  int layer = 6;
  Point origin{0.0, 0.0};
  Axis axis = Axis::X;
  std::string prefix = "bus";
  int shield_period = 0;        ///< insert a ground shield every N signals (0 = none)
  int shield_net = -1;          ///< existing ground net for shields (-1: create one)
  bool add_drivers = true;
  double driver_res = 30.0;
  double sink_cap = 20e-15;
  double slew = 50e-12;
};

struct BusResult {
  std::vector<int> signal_nets;
  int shield_net = -1;
  std::vector<double> track_positions;  ///< transverse coordinate per signal
};

/// Adds a parallel bus, optionally with interleaved grounded shield tracks
/// (Fig. 5 "shielding"). Drivers sit at the `origin` end, receivers at the
/// far end.
BusResult add_bus(Layout& layout, const BusSpec& spec);

// ---------------------------------------------------------------------------
// Fig. 6: dedicated ground planes (dense grounded mesh above/below signal)
// ---------------------------------------------------------------------------

struct GroundPlaneSpec {
  int layer = 5;
  Point origin{0.0, 0.0};
  double extent_along = um(1000.0);  ///< along the fill direction
  double extent_across = um(40.0);   ///< width of the plane region
  Axis axis = Axis::X;               ///< fill direction
  double fill_width = um(2.0);
  double fill_pitch = um(4.0);
  int net = -1;                      ///< ground net (-1: create one)
};

/// Fills a region with parallel grounded lines approximating a plane (the
/// paper's "dedicated ground planes or meshes"). Returns the ground net id.
int add_ground_plane(Layout& layout, const GroundPlaneSpec& spec);

// ---------------------------------------------------------------------------
// Fig. 7: inter-digitated wide wire
// ---------------------------------------------------------------------------

struct InterdigitatedSpec {
  double total_signal_width = um(10.0);  ///< metal budget of the original wide wire
  int fingers = 1;                       ///< 1 = the original single wide wire
  double length = um(1000.0);
  double spacing = um(1.0);              ///< gap between adjacent fingers/shields
  double shield_width = um(1.0);
  int layer = 6;
  Point origin{0.0, 0.0};
};

struct InterdigitatedResult {
  int signal_net = -1;
  int ground_net = -1;
  double metallization_width = 0.0;  ///< total transverse metal footprint
};

/// Splits a wide signal wire into `fingers` thinner wires with grounded
/// shields in between, end-strapped so they remain one electrical net.
InterdigitatedResult add_interdigitated(Layout& layout,
                                        const InterdigitatedSpec& spec);

// ---------------------------------------------------------------------------
// Fig. 9: twisted-bundle layout
// ---------------------------------------------------------------------------

struct TwistedBundleSpec {
  int bits = 4;
  int regions = 4;          ///< routing regions; tracks permute at boundaries
  double length = um(2000.0);
  double width = um(1.0);
  double spacing = um(1.0);
  int layer = 6;
  int jog_layer = 5;        ///< layer used for the short crossover jogs
  Point origin{0.0, 0.0};
  bool twisted = true;      ///< false = plain parallel bundle (baseline)
  bool add_ground_return = true;  ///< straight ground track along the bundle
  double driver_res = 30.0;
  double sink_cap = 20e-15;
  double slew = 50e-12;
};

/// Twisted-bundle structure: at each region boundary adjacent tracks swap in
/// a braided (alternating-phase transposition) pattern, so every net's
/// position relative to its neighbours — and to the ground return —
/// alternates region by region and the coupled flux contributions cancel.
/// The returned BusResult's shield_net is the ground return (if added).
BusResult add_twisted_bundle(Layout& layout, const TwistedBundleSpec& spec);

// ---------------------------------------------------------------------------
// Fig. 1: driver-receiver-grid current-flow testbench
// ---------------------------------------------------------------------------

struct DriverReceiverGridSpec {
  PowerGridSpec grid;
  double signal_length = um(800.0);
  double signal_width = um(2.0);
  /// Routed one level below the grid layers so the horizontal signal never
  /// shares a layer with (and thus never shorts against) the grid straps.
  int signal_layer = 4;
  double driver_res = 20.0;
  double sink_cap = 30e-15;
  double slew = 50e-12;
};

struct DriverReceiverGridResult {
  int signal_net = -1;
  PowerGridNets grid_nets;
};

/// The Figure-1 topology: one signal line routed across a small power/ground
/// grid with a driver on one side and receiver on the other, supplies via
/// pads/package.
DriverReceiverGridResult add_driver_receiver_grid(
    Layout& layout, const DriverReceiverGridSpec& spec);

}  // namespace ind::geom
