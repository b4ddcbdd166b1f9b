// Reduced-model co-simulation with switched drivers (the combined flow of
// [4]), as a descriptor system for circuit::transient.
//
// The drivers stay *outside* the reduced linear macromodel: the full
// system's B gains one unit current-injection port per driver-attached
// unknown (port_inputs), the reduction keeps those columns, and
// reduced_system re-attaches the drivers through explicit port unknowns:
//
//   [ Gr    0   -Pr ] [z]   [ Cr 0 0 ] [z]'   [Br]
//   [ 0     Gd   I  ] [v] + [ 0  0 0 ] [v]  = [0 ] u(t)
//   [ Prᵀ  -I    0  ] [i]   [ 0  0 0 ] [i]    [0 ]
//
// z holds the q reduced states, v the port voltages and i the currents
// flowing from each port into the macromodel; Br and Pr are the source and
// port columns of the reduced B. Row v is KCL at the port, where the
// drivers stamp their conductances Gd(t) exactly as on an MNA node; row i
// is the port's branch equation v = Prᵀz in the passive (negated) form of
// circuit/mna.hpp, so G + Gᵀ = diag(Gr + Grᵀ, 0, 0) ⪰ 0 whenever the
// reduction kept Gr passive. Eliminating v and i gives back
// (Gr + Pr Gd Prᵀ) z + Cr z' = Br u. The v unknowns are the system's driver
// nodes, which the transient orders last, so a driver transition refactors
// only the port columns instead of the dense q x q block.
#pragma once

#include "circuit/mna.hpp"
#include "mor/prima.hpp"

namespace ind::mor {

/// The inputs a reduction of `full` takes: full's B (its source columns),
/// then one unit port column per distinct driver-attached unknown (each
/// driver's out, vdd and gnd in order of first appearance, the reference
/// skipped).
la::Matrix port_inputs(const circuit::DescriptorSystem& full);

/// Full's outputs as the columns of a dense selector matrix L. Throws
/// std::invalid_argument on a driver-current output (not a fixed linear
/// function of the state).
la::Matrix output_selectors(const circuit::DescriptorSystem& full);

/// The co-simulation system of `model`, reduced from `full` with inputs
/// port_inputs(full) and outputs output_selectors(full): full's source
/// waveforms, full's drivers on the port-voltage unknowns, and full's
/// output names. Throws std::invalid_argument when the model's B or L
/// columns do not match that layout.
circuit::DescriptorSystem reduced_system(const ReducedModel& model,
                                         const circuit::DescriptorSystem& full);

}  // namespace ind::mor
