#include "extract/skin.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ind::extract {

std::vector<geom::Segment> split_for_skin(const geom::Segment& s,
                                          const SkinSplitOptions& opts) {
  if (!(opts.max_width > 0.0) || !(opts.max_thickness > 0.0))
    throw std::invalid_argument(
        "split_for_skin: max_width / max_thickness must be > 0");
  if (opts.max_filaments_per_axis < 1)
    throw std::invalid_argument(
        "split_for_skin: max_filaments_per_axis must be >= 1");
  // Clamp in double BEFORE the int cast: a tiny max_width can push
  // ceil(width / max_width) far past INT_MAX, and float-to-int conversion of
  // an out-of-range value is undefined behaviour, not saturation.
  const auto split_count = [&opts](double extent, double max_extent) {
    double c = std::ceil(extent / max_extent);
    if (!(c > 1.0)) c = 1.0;  // also catches NaN from 0/0
    c = std::min(c, static_cast<double>(opts.max_filaments_per_axis));
    return static_cast<int>(c);
  };
  const int nw = split_count(s.width, opts.max_width);
  const int nt = split_count(s.thickness, opts.max_thickness);

  std::vector<geom::Segment> out;
  out.reserve(static_cast<std::size_t>(nw) * nt);
  const double fw = s.width / nw;
  const double ft = s.thickness / nt;
  const bool along_x = s.axis() == geom::Axis::X;

  for (int iw = 0; iw < nw; ++iw) {
    // Offset of this filament's centre from the parent centre-line.
    const double lateral = (iw - 0.5 * (nw - 1)) * fw;
    for (int it = 0; it < nt; ++it) {
      const double vertical = (it - 0.5 * (nt - 1)) * ft;
      geom::Segment f = s;
      f.width = fw;
      f.thickness = ft;
      f.z = s.z + vertical;
      if (along_x) {
        f.a.y += lateral;
        f.b.y += lateral;
      } else {
        f.a.x += lateral;
        f.b.x += lateral;
      }
      out.push_back(f);
    }
  }
  return out;
}

std::vector<geom::Segment> split_all(const std::vector<geom::Segment>& in,
                                     std::vector<std::size_t>& parent_of,
                                     const SkinSplitOptions& opts) {
  std::vector<geom::Segment> out;
  parent_of.clear();
  for (std::size_t i = 0; i < in.size(); ++i) {
    for (geom::Segment& f : split_for_skin(in[i], opts)) {
      out.push_back(f);
      parent_of.push_back(i);
    }
  }
  return out;
}

}  // namespace ind::extract
