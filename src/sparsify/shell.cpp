#include "sparsify/shell.hpp"

#include <algorithm>
#include <stdexcept>

#include "extract/partial_inductance.hpp"

namespace ind::sparsify {
namespace {

// Mutual of the pair evaluated at an overridden GMD distance.
double mutual_at_distance(const geom::Segment& s, const geom::Segment& t,
                          double d) {
  const auto g = geom::parallel_geometry(s, t);
  if (!g) return 0.0;
  const double ds = s.axis() == geom::Axis::X ? s.b.x - s.a.x : s.b.y - s.a.y;
  const double dt = t.axis() == geom::Axis::X ? t.b.x - t.a.x : t.b.y - t.a.y;
  const double sign = (ds >= 0) == (dt >= 0) ? 1.0 : -1.0;
  return sign * extract::mutual_partial_inductance(g->length_i, g->length_j,
                                                   g->axial_gap, d);
}

double pair_distance(const geom::Segment& s, const geom::Segment& t) {
  const auto g = geom::parallel_geometry(s, t);
  if (!g) return 1e300;
  const double clamp = 0.5 * (extract::self_gmd(s.width, s.thickness) +
                              extract::self_gmd(t.width, t.thickness));
  return std::max(g->center_distance(), clamp);
}

}  // namespace

SparsifiedL shell(const std::vector<geom::Segment>& segments, double radius) {
  if (radius <= 0.0) throw std::invalid_argument("shell: radius <= 0");
  const std::size_t n = segments.size();
  SparsifiedL out;
  out.diag.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Segment& s = segments[i];
    const double gmd = extract::self_gmd(s.width, s.thickness);
    const double self =
        extract::self_partial_inductance(s.length(), s.width, s.thickness);
    // Diagonal shift: subtract the coupling to the segment's own return
    // shell (evaluated with the same length decomposition as the self term).
    const double at_shell = extract::mutual_partial_inductance(
        s.length(), s.length(), -s.length(), std::max(radius, gmd));
    out.diag[i] = std::max(self - at_shell, 0.05 * self);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = pair_distance(segments[i], segments[j]);
      if (d >= radius) continue;
      const double m = mutual_at_distance(segments[i], segments[j], d) -
                       mutual_at_distance(segments[i], segments[j], radius);
      if (m != 0.0) out.terms.push_back({i, j, m});
    }
  }
  return out;
}

}  // namespace ind::sparsify
