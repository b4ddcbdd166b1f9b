// Input validation front door.
//
// Degenerate inputs (zero-width or overlapping wires, degenerate vias) are
// the usual origin of the singular MNA systems the fallback ladder then has
// to rescue; this pass catches them at the boundary — layout_io and the
// PEEC model builder run it — and returns structured issues with source
// locations instead of letting the solver discover the problem as a
// singular pivot three layers down.
//
// The implementation compiles into the owning layer (validate_layout.cpp
// into ind_geom); this header only forward-declares the validated type so
// it stays dependency-free. The netlist pass that goes with the tests'
// SPICE reader lives in tests/ (validate_netlist.cpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ind::geom {
class Layout;
}

namespace ind::robust {

enum class Severity { Warning, Error };

struct ValidationIssue {
  Severity severity = Severity::Error;
  /// Stable machine-readable code, e.g. "floating-node", "k-over-unity",
  /// "zero-width-wire", "layout-short".
  std::string code;
  /// Human-readable description naming the offending elements.
  std::string message;
  /// Source location: "node 3", "inductors 2 and 5", "segment 7", ...
  std::string location;
};

struct ValidationReport {
  std::vector<ValidationIssue> issues;

  std::size_t error_count() const {
    std::size_t n = 0;
    for (const ValidationIssue& i : issues)
      if (i.severity == Severity::Error) ++n;
    return n;
  }
  std::size_t warning_count() const {
    return issues.size() - error_count();
  }
  bool has_errors() const { return error_count() > 0; }

  void add(Severity severity, std::string code, std::string message,
           std::string location) {
    issues.push_back(
        {severity, std::move(code), std::move(message), std::move(location)});
  }

  /// One line per issue: "error [code] message (location)".
  std::string summary() const {
    std::string out;
    for (const ValidationIssue& i : issues) {
      if (!out.empty()) out += '\n';
      out += i.severity == Severity::Error ? "error" : "warning";
      out += " [" + i.code + "] " + i.message;
      if (!i.location.empty()) out += " (" + i.location + ")";
    }
    return out;
  }
};

/// Geometric sanity of a layout: zero-width or zero-length wires,
/// degenerate vias, cross-net same-layer metal overlap (shorts).
ValidationReport validate(const geom::Layout& layout);

}  // namespace ind::robust
