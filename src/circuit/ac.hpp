// Small-signal AC sweep: solves (G + j w C) x = b at each frequency of a
// sweep, for a unit phasor excitation at one independent source with all
// other sources zeroed. A single point is a one-element sweep.
//
// Computes the full PEEC model's port impedance for Fig. 3(b)
// (core::peec_port_impedance). Each point factors G + jwC in its
// real-equivalent doubled form through the guarded sparse ladder
// (robust::ComplexSparseFactor), the same factor path as the transient and
// PRIMA; one factor is held across the sweep, so AMD runs once per sweep.
#pragma once

#include <vector>

#include "circuit/mna.hpp"
#include "robust/diagnostics.hpp"

namespace ind::circuit {

struct AcExcitation {
  enum class Kind { VSource, ISource };
  Kind kind = Kind::VSource;
  std::size_t index = 0;
};

struct AcResult {
  la::CVector x;  ///< full MNA solution (nodes then branches)
  Mna mna;        ///< index map for interpreting x

  /// Robustness diagnostics: Hager condition estimate of G + jwC's doubled
  /// form, relative residual of the solve, and any recovery rung taken.
  /// A Failed status leaves `x` all-zero.
  robust::SolveReport report;

  la::Complex node_voltage(NodeId node) const {
    return node >= 0 ? x[static_cast<std::size_t>(node)] : la::Complex{};
  }
  la::Complex inductor_current(std::size_t k) const {
    return x[mna.inductor_branch(k)];
  }
  la::Complex vsource_current(std::size_t k) const {
    return x[mna.vsource_branch(k)];
  }
};

/// Solves the AC system at each angular frequency in `omegas` (rad/s).
/// Switched drivers contribute their conductance at `driver_time` (default:
/// fully settled). The MNA index maps and the G / C stamps are built once;
/// every point stamps the same pattern (only jw changes), so it costs one
/// numeric refactorisation, bitwise-identical to a one-point sweep at that
/// frequency.
std::vector<AcResult> ac_sweep(const Netlist& netlist,
                               const AcExcitation& excitation,
                               const std::vector<double>& omegas,
                               double driver_time = 1e12);

}  // namespace ind::circuit
