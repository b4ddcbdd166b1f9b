#include "geom/layout.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace ind::geom {

int Layout::add_net(std::string name, NetKind kind) {
  nets_.push_back({std::move(name), kind});
  return static_cast<int>(nets_.size()) - 1;
}

int Layout::find_net(const std::string& name) const {
  for (std::size_t i = 0; i < nets_.size(); ++i)
    if (nets_[i].name == name) return static_cast<int>(i);
  return -1;
}

std::size_t Layout::add_wire(int net, int layer, Point a, Point b,
                             double width) {
  if (a.x != b.x && a.y != b.y)
    throw std::invalid_argument("Layout::add_wire: wire must be axis-aligned");
  if (width <= 0.0)
    throw std::invalid_argument("Layout::add_wire: width must be positive");
  const Layer& l = tech_.layer(layer);
  Segment s;
  s.a = a;
  s.b = b;
  s.width = width;
  s.thickness = l.thickness;
  s.z = l.z_center();
  s.layer = layer;
  s.net = net;
  s.kind = net >= 0 ? nets_.at(static_cast<std::size_t>(net)).kind
                    : NetKind::Signal;
  segments_.push_back(s);
  return segments_.size() - 1;
}

void Layout::add_via(int net, Point at, int lower_layer, int upper_layer,
                     int cuts) {
  if (lower_layer >= upper_layer)
    throw std::invalid_argument("Layout::add_via: lower >= upper layer");
  vias_.push_back({at, lower_layer, upper_layer, cuts, net});
}

std::vector<std::pair<std::size_t, std::size_t>> Layout::adjacent_pairs(
    double max_spacing) const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < segments_.size(); ++i)
    for (std::size_t j = i + 1; j < segments_.size(); ++j)
      if (laterally_adjacent(segments_[i], segments_[j], max_spacing))
        out.emplace_back(i, j);
  return out;
}

double Layout::total_wirelength() const {
  double acc = 0.0;
  for (const Segment& s : segments_) acc += s.length();
  return acc;
}

std::pair<Point, Point> Layout::bounding_box() const {
  Point lo{1e300, 1e300}, hi{-1e300, -1e300};
  for (const Segment& s : segments_) {
    lo.x = std::min({lo.x, s.a.x, s.b.x});
    lo.y = std::min({lo.y, s.a.y, s.b.y});
    hi.x = std::max({hi.x, s.a.x, s.b.x});
    hi.y = std::max({hi.y, s.a.y, s.b.y});
  }
  if (segments_.empty()) return {{0, 0}, {0, 0}};
  return {lo, hi};
}

namespace {

constexpr double kRefineEps = 1e-12;

// True if point p lies on the centre-line footprint of segment s on `layer`.
bool point_on_segment(const Segment& s, const Point& p, int layer) {
  if (layer != s.layer) return false;
  const bool along_x = s.axis() == Axis::X;
  const double t = along_x ? p.y : p.x;
  const double c = along_x ? p.x : p.y;
  if (std::abs(t - s.transverse()) > 0.5 * s.width + kRefineEps) return false;
  return c >= s.lo() - kRefineEps && c <= s.hi() + kRefineEps;
}

double along_coord(const Segment& s, const Point& p) {
  return s.axis() == Axis::X ? p.x : p.y;
}

}  // namespace

Layout refine(const Layout& layout, double max_segment_length) {
  if (max_segment_length <= 0.0)
    throw std::invalid_argument("refine: max_segment_length must be positive");
  Layout out(layout.tech());
  for (std::size_t n = 0; n < layout.num_nets(); ++n)
    out.add_net(layout.net(static_cast<int>(n)).name,
                layout.net(static_cast<int>(n)).kind);

  for (const Segment& s : layout.segments()) {
    // Gather interior cut coordinates: electrical connection points must
    // coincide with segment endpoints so they become circuit nodes.
    std::vector<double> cuts;
    for (const Via& v : layout.vias()) {
      if (v.net != s.net) continue;
      if (s.layer < v.lower_layer || s.layer > v.upper_layer) continue;
      if (point_on_segment(s, v.at, s.layer))
        cuts.push_back(along_coord(s, v.at));
    }
    for (const Driver& d : layout.drivers())
      if (d.signal_net == s.net && point_on_segment(s, d.at, d.layer))
        cuts.push_back(along_coord(s, d.at));
    for (const Receiver& r : layout.receivers())
      if (r.signal_net == s.net && point_on_segment(s, r.at, r.layer))
        cuts.push_back(along_coord(s, r.at));
    for (const Pad& p : layout.pads())
      if (p.kind == s.kind && point_on_segment(s, p.at, p.layer))
        cuts.push_back(along_coord(s, p.at));

    const double lo = s.lo(), hi = s.hi();
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end(),
                           [](double a, double b) {
                             return std::abs(a - b) < kRefineEps;
                           }),
               cuts.end());

    std::vector<double> bounds;
    bounds.push_back(lo);
    for (double c : cuts)
      if (c > lo + kRefineEps && c < hi - kRefineEps) bounds.push_back(c);
    bounds.push_back(hi);

    const bool along_x = s.axis() == Axis::X;
    const double t = s.transverse();
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      const double piece_lo = bounds[k], piece_hi = bounds[k + 1];
      const double len = piece_hi - piece_lo;
      if (len <= kRefineEps) continue;
      const int pieces =
          std::max(1, static_cast<int>(std::ceil(len / max_segment_length)));
      const double step = len / pieces;
      for (int q = 0; q < pieces; ++q) {
        const double a = piece_lo + q * step, b = piece_lo + (q + 1) * step;
        if (along_x)
          out.add_wire(s.net, s.layer, {a, t}, {b, t}, s.width);
        else
          out.add_wire(s.net, s.layer, {t, a}, {t, b}, s.width);
      }
    }
  }
  for (const Via& v : layout.vias())
    out.add_via(v.net, v.at, v.lower_layer, v.upper_layer, v.cuts);
  for (const Pad& p : layout.pads()) out.add_pad(p);
  for (const Driver& d : layout.drivers()) out.add_driver(d);
  for (const Receiver& r : layout.receivers()) out.add_receiver(r);
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> find_layout_shorts(
    const Layout& layout) {
  std::vector<std::pair<std::size_t, std::size_t>> shorts;
  const auto& segs = layout.segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    for (std::size_t j = i + 1; j < segs.size(); ++j) {
      const Segment& a = segs[i];
      const Segment& b = segs[j];
      if (a.layer != b.layer || a.net == b.net) continue;
      if (a.axis() == b.axis()) {
        // Parallel: metal touches when edge spacing is non-positive and the
        // spans overlap axially.
        const auto g = parallel_geometry(a, b);
        if (g && g->overlap > 0.0 && edge_spacing(a, b) <= 0.0)
          shorts.emplace_back(i, j);
      } else {
        // Orthogonal: footprints intersect when each centre-line crosses the
        // other's span (within half-widths).
        const Segment& h = a.axis() == Axis::X ? a : b;
        const Segment& v = a.axis() == Axis::X ? b : a;
        const bool cross_x = v.transverse() + 0.5 * v.width > h.lo() &&
                             v.transverse() - 0.5 * v.width < h.hi();
        const bool cross_y = h.transverse() + 0.5 * h.width > v.lo() &&
                             h.transverse() - 0.5 * h.width < v.hi();
        if (cross_x && cross_y) shorts.emplace_back(i, j);
      }
    }
  }
  return shorts;
}

}  // namespace ind::geom
