// SPICE deck export.
//
// Every flow in the paper ultimately hands a netlist to SPICE ("the
// complete circuit is simulated in SPICE"); this writer emits the library's
// Netlist in standard SPICE syntax so the models can be cross-checked in
// any external simulator: R/C/L cards, K cards for mutual coupling,
// PWL-driven V/I sources, and the switched drivers expanded into
// voltage-controlled switch pairs with PWL control waveforms.
#pragma once

#include <iosfwd>
#include <string>

#include "circuit/netlist.hpp"

namespace ind::circuit {

struct SpiceExportOptions {
  std::string title = "inductance101 export";
  /// Timestep used to sample driver conductance ramps into PWL controls.
  double driver_sample_step = 5e-12;
  /// K-matrix groups cannot be expressed in SPICE directly; when true they
  /// are exported as the equivalent dense mutual-inductor set (requires the
  /// caller to have kept self inductances meaningful), otherwise the export
  /// throws on K groups.
  bool expand_kmatrix_groups = false;
};

/// Writes the netlist as a SPICE deck. Node 0 is ground; internal node ids
/// are emitted as n<id>.
void write_spice(std::ostream& os, const Netlist& netlist,
                 const SpiceExportOptions& opts = {});

}  // namespace ind::circuit
