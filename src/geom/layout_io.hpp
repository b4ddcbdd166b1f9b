// Plain-text layout serialisation.
//
// A small, stable, line-oriented format so workloads can be saved, diffed,
// versioned and fed in from outside the generators. One record per line:
//
//   # comment
//   tech default
//   net  <name> <signal|power|ground|shield>
//   wire <net> <layer> <x0um> <y0um> <x1um> <y1um> <width_um>
//   via  <net> <xum> <yum> <lower> <upper> <cuts>
//   pad  <power|ground> <layer> <xum> <yum> <ohms> <henries>
//   drv  <net> <layer> <xum> <yum> <ohms> <slew_s> <start_s> <r|f> <name>
//   rcv  <net> <layer> <xum> <yum> <farads> <name>
//
// Coordinates are micrometres in the file (the natural unit for layout),
// metres in memory.
#pragma once

#include <iosfwd>
#include <string>

#include "geom/layout.hpp"
#include "robust/validate.hpp"

namespace ind::geom {

/// Writes the layout (only `tech default` is representable; a custom stack
/// round-trips geometry but reloads with the default technology).
void write_layout(std::ostream& os, const Layout& layout);

/// Parses the format above. Throws std::invalid_argument with the line
/// number on malformed records (including non-positive wire widths). The
/// two-argument overload additionally runs the geometric validation pass
/// (robust::validate) over the parsed layout and fills `validation` with
/// the structured issues found; parsing itself still succeeds.
Layout read_layout(std::istream& is);
Layout read_layout(std::istream& is, robust::ValidationReport* validation);
Layout layout_from_text(const std::string& text);

}  // namespace ind::geom
