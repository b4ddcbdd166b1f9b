// SPICE deck import for the tests: the inverse of circuit::write_spice for
// the linear subset (R, C, L, K, V, I cards with numeric or PWL/DC values).
// It is the round-trip oracle of the exporter; no library or tool reads
// SPICE decks, so the parser and the netlist validation it attaches live
// here rather than in src/.
//
// Unsupported cards (models, subcircuits, behavioural sources) are counted
// and skipped rather than rejected, so decks written by other tools load
// with their linear backbone intact.
#pragma once

#include <iosfwd>
#include <string>

#include "circuit/netlist.hpp"
#include "robust/validate.hpp"

namespace ind::circuit {

struct SpiceImportResult {
  Netlist netlist;
  std::size_t parsed_cards = 0;
  std::size_t skipped_cards = 0;  ///< unsupported element types

  /// Electrical sanity of the parsed netlist (floating nodes, non-positive
  /// element values, |k| > 1 couplings, ...). Parsing succeeds even when
  /// issues are present; callers decide how strict to be.
  robust::ValidationReport validation;
};

/// Parses a SPICE deck. Node "0" (and "gnd") map to the reference; other
/// node names become named netlist nodes. Throws std::invalid_argument on
/// malformed supported cards; the message carries the 1-based source line
/// number of the offending card.
SpiceImportResult parse_spice(std::istream& is);
SpiceImportResult parse_spice(const std::string& deck);

/// Parses a SPICE value with engineering suffix: 1k, 2.2u, 10MEG, 5n, 3p...
double parse_spice_value(const std::string& token);

}  // namespace ind::circuit

namespace ind::robust {

/// Electrical sanity of a netlist: floating / capacitor-only nodes,
/// non-positive R/L/C values, mutual coupling |k| > 1
/// (tests/validate_netlist.cpp).
ValidationReport validate(const circuit::Netlist& netlist);

}  // namespace ind::robust
