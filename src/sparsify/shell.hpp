// Shell (shift-truncate) sparsification [13][14] (Section 4): "associate
// each segment with a distributed current return path out to a shell of some
// radius. Segments with spacing more than this radius are assumed to have no
// inductive coupling. The inductance values of the segments within the
// radius are shifted to account for those entries that were dropped."
//
// Implementation: every entry is re-evaluated with the shifted kernel
//   M'(d) = M(d) - M(r0)      for d < r0,   0 otherwise,
// where M(x) is the Grover mutual of the same segment pair at GMD distance x
// (the diagonal shifts too, via the self-GMD). The shifted kernel vanishes
// continuously at the shell and — being a radially decreasing positive
// kernel difference — preserves positive definiteness in practice where raw
// truncation fails.
#pragma once

#include <vector>

#include "geom/segment.hpp"
#include "sparsify/mutual_spec.hpp"

namespace ind::sparsify {

/// `radius` is the shell radius r0 (metres).
SparsifiedL shell(const std::vector<geom::Segment>& segments, double radius);

}  // namespace ind::sparsify
