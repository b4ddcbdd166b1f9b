// Layout: the complete physical description handed to extraction and to the
// PEEC / loop model builders.
//
// Holds conductor segments over a technology stack, vias, supply pads, and
// the switching elements (drivers / receivers) that Section 2 of the paper
// needs to trace current loops I1/I2/I3 through the grid and package.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "geom/segment.hpp"

namespace ind::geom {

/// A gate driving a signal net: modelled downstream as a switched resistor
/// between the local power/ground grid and the net (Section 3's switching
/// device model, specialised to the net under analysis).
struct Driver {
  Point at;
  int layer = 1;
  int signal_net = -1;
  double strength_ohm = 30.0;  ///< effective pull resistance
  double slew = 50e-12;        ///< input transition time, seconds
  double start_time = 0.0;     ///< when the input starts switching
  bool rising = true;          ///< output transition direction
  std::string name;
};

/// A receiving gate: a lumped load capacitance at a pin, and a waveform
/// probe point for delay/skew measurement.
struct Receiver {
  Point at;
  int layer = 1;
  int signal_net = -1;
  double load_cap = 20e-15;  ///< farads
  std::string name;
};

struct NetInfo {
  std::string name;
  NetKind kind = NetKind::Signal;
};

class Layout {
 public:
  /// Empty layout over an empty technology (assign a real one before use).
  Layout() = default;
  explicit Layout(Technology tech) : tech_(std::move(tech)) {}

  const Technology& tech() const { return tech_; }

  // --- nets ---------------------------------------------------------------
  int add_net(std::string name, NetKind kind);
  int find_net(const std::string& name) const;  ///< -1 if absent
  const NetInfo& net(int id) const { return nets_.at(static_cast<std::size_t>(id)); }
  std::size_t num_nets() const { return nets_.size(); }

  // --- geometry -----------------------------------------------------------
  /// Adds an axis-aligned wire on `layer` from `a` to `b`; thickness and z
  /// come from the technology. Returns the segment index.
  std::size_t add_wire(int net, int layer, Point a, Point b, double width);

  void add_via(int net, Point at, int lower_layer, int upper_layer,
               int cuts = 1);
  /// Appends a fully specified segment verbatim (no technology lookup).
  /// Used by the artifact store to restore a serialized layout exactly;
  /// normal construction should go through add_wire.
  std::size_t add_segment(Segment s) {
    segments_.push_back(s);
    return segments_.size() - 1;
  }
  void add_pad(Pad pad) { pads_.push_back(pad); }
  void add_driver(Driver d) { drivers_.push_back(std::move(d)); }
  void add_receiver(Receiver r) { receivers_.push_back(std::move(r)); }

  const std::vector<Segment>& segments() const { return segments_; }
  const std::vector<Via>& vias() const { return vias_; }
  const std::vector<Pad>& pads() const { return pads_; }
  const std::vector<Driver>& drivers() const { return drivers_; }
  const std::vector<Receiver>& receivers() const { return receivers_; }
  std::vector<Driver>& drivers() { return drivers_; }
  std::vector<Receiver>& receivers() { return receivers_; }

  // --- queries ------------------------------------------------------------
  /// Same-layer side-by-side pairs with edge spacing <= max_spacing — the
  /// candidates for lateral coupling capacitance.
  std::vector<std::pair<std::size_t, std::size_t>> adjacent_pairs(
      double max_spacing) const;

  /// Total routed wirelength (metres).
  double total_wirelength() const;

  /// Bounding box of all segments: {min, max}.
  std::pair<Point, Point> bounding_box() const;

 private:
  Technology tech_;
  std::vector<NetInfo> nets_;
  std::vector<Segment> segments_;
  std::vector<Via> vias_;
  std::vector<Pad> pads_;
  std::vector<Driver> drivers_;
  std::vector<Receiver> receivers_;
};

/// Model-ready refinement: first cuts every wire at each electrical
/// connection point lying on it (vias, drivers, receivers, pads) so those
/// points become segment endpoints (= circuit nodes), then splits the
/// pieces into equal parts no longer than `max_segment_length`. Controls
/// model granularity (more segments -> finer distributed RLC, larger
/// matrices).
Layout refine(const Layout& layout, double max_segment_length);

/// Physical shorts: pairs of same-layer segments of *different* nets whose
/// metal overlaps (parallel tracks that touch, or orthogonal wires that
/// cross on one layer). A layout with shorts is not electrically meaningful
/// and the PEEC builder rejects it.
std::vector<std::pair<std::size_t, std::size_t>> find_layout_shorts(
    const Layout& layout);

}  // namespace ind::geom
