// When does inductance matter? (Deutsch et al. [1], the paper's opening
// citation: "When are Transmission-Line Effects Important for On-Chip
// Interconnections?")
//
// The classical screen: transmission-line (inductive) behaviour is
// significant for a line of length l, total resistance R, and per-length
// inductance/capacitance L', C' when
//
//     t_r / (2 sqrt(L'C'))   <   l   <   2/R' * sqrt(L'/C')
//
// i.e. the line is long enough that the driver edge resolves the flight
// time, yet short enough that resistive attenuation has not killed the
// wave. Below we also provide Elmore delay (the standard RC screen) so the
// two estimates bracket the simulated behaviour.
#pragma once

#include "geom/layout.hpp"
#include "loop/port_extractor.hpp"

namespace ind::design {

/// Per-unit-length electrical parameters of a signal net against its
/// environment, derived from the extraction kernels.
struct LineParameters {
  double r_per_m = 0.0;  ///< ohm/m  (signal conductor DC)
  double l_per_m = 0.0;  ///< H/m    (loop inductance at `freq`)
  double c_per_m = 0.0;  ///< F/m    (ground + coupling capacitance)
  double length = 0.0;   ///< m
};

/// Extracts the line parameters of `signal_net` (loop L at `freq` via the
/// MQS solver, C from the Chern models, R from the sheet model).
LineParameters extract_line_parameters(
    const geom::Layout& layout, int signal_net, double freq = 2e9,
    const loop::LoopExtractionOptions& opts = {});

struct SignificanceReport {
  double lower_bound = 0.0;  ///< metres: below this, the edge hides the wave
  double upper_bound = 0.0;  ///< metres: above this, attenuation dominates
  double length = 0.0;       ///< the net's actual length
  bool inductance_significant = false;  ///< lower < length < upper

  /// Edge-rate criterion expressed as a ratio (length / lower bound):
  /// > 1 means the flight time is resolvable.
  double edge_ratio = 0.0;
  /// Attenuation criterion (upper bound / length): > 1 means underdamped.
  double damping_ratio = 0.0;
};

/// Applies the Deutsch window for a driver rise time `t_rise`.
SignificanceReport inductance_significance(const LineParameters& line,
                                           double t_rise);

/// Elmore delay of a uniform RC line with a driver resistance and a lumped
/// load: t = R_drv (C_line + C_load) + R_line (C_line/2 + C_load).
double elmore_delay(const LineParameters& line, double driver_ohms,
                    double load_farads);

}  // namespace ind::design
