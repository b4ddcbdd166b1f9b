// Skin-effect conductor splitting.
//
// The analytical partial-inductance formulas assume uniform current density;
// "hence very wide conductors must be split into narrower lines before
// computing inductance" (Section 3). Splitting a bar into parallel filaments
// that share end nodes lets the field solver redistribute current with
// frequency, which is precisely how skin and proximity effects appear in the
// loop extractor's R(f) rise and L(f) droop (Fig. 3b).
#pragma once

#include <vector>

#include "geom/segment.hpp"

namespace ind::extract {

struct SkinSplitOptions {
  double max_width = geom::um(2.0);      ///< max filament width (> 0)
  double max_thickness = geom::um(2.0);  ///< max filament thickness (> 0)
  int max_filaments_per_axis = 8;        ///< cap on the split factor (>= 1)
};

/// Splits a segment laterally (and vertically if thick) into filaments with
/// identical length that share the original end cross-sections. Each
/// filament keeps the parent's net/kind/layer; widths divide evenly. The
/// split factor per axis is clamped to max_filaments_per_axis before any
/// narrowing conversion, so arbitrarily small max_width / max_thickness are
/// safe. Throws std::invalid_argument for invalid options (non-positive
/// max extents, cap below 1).
std::vector<geom::Segment> split_for_skin(const geom::Segment& s,
                                          const SkinSplitOptions& opts = {});

/// Applies split_for_skin to every segment; `parent_of[k]` maps each output
/// filament back to the index of its source segment (for node sharing).
std::vector<geom::Segment> split_all(const std::vector<geom::Segment>& in,
                                     std::vector<std::size_t>& parent_of,
                                     const SkinSplitOptions& opts = {});

}  // namespace ind::extract
