#include "design/significance.hpp"

#include <cmath>
#include <stdexcept>

#include "extract/capacitance.hpp"
#include "extract/resistance.hpp"

namespace ind::design {

LineParameters extract_line_parameters(
    const geom::Layout& layout, int signal_net, double freq,
    const loop::LoopExtractionOptions& opts) {
  const geom::Layout refined = geom::refine(layout, opts.max_segment_length);
  LineParameters p;
  double r_total = 0.0, c_total = 0.0;
  for (std::size_t i = 0; i < refined.segments().size(); ++i) {
    const geom::Segment& s = refined.segments()[i];
    if (s.net != signal_net) continue;
    p.length += s.length();
    r_total += extract::segment_resistance(s, refined.tech());
    c_total += extract::segment_ground_cap(s, refined.tech());
  }
  // Coupling capacitance to other conductors loads the net too.
  for (const auto& [i, j] : refined.adjacent_pairs(geom::um(5.0))) {
    const auto& si = refined.segments()[i];
    const auto& sj = refined.segments()[j];
    if ((si.net == signal_net) == (sj.net == signal_net)) continue;
    c_total += extract::segment_coupling_cap(si, sj, refined.tech());
  }
  if (p.length <= 0.0)
    throw std::invalid_argument("extract_line_parameters: net has no wires");

  const double l_loop =
      loop::extract_loop_rl(layout, signal_net, {freq}, opts)[0].inductance;
  p.r_per_m = r_total / p.length;
  p.c_per_m = c_total / p.length;
  p.l_per_m = l_loop / p.length;
  return p;
}

SignificanceReport inductance_significance(const LineParameters& line,
                                           double t_rise) {
  if (line.l_per_m <= 0.0 || line.c_per_m <= 0.0)
    throw std::invalid_argument("inductance_significance: non-positive L'/C'");
  SignificanceReport rep;
  rep.length = line.length;
  rep.lower_bound = t_rise / (2.0 * std::sqrt(line.l_per_m * line.c_per_m));
  rep.upper_bound = (2.0 / line.r_per_m) *
                    std::sqrt(line.l_per_m / line.c_per_m);
  rep.inductance_significant =
      line.length > rep.lower_bound && line.length < rep.upper_bound;
  rep.edge_ratio = line.length / rep.lower_bound;
  rep.damping_ratio = rep.upper_bound / line.length;
  return rep;
}

double elmore_delay(const LineParameters& line, double driver_ohms,
                    double load_farads) {
  const double r_line = line.r_per_m * line.length;
  const double c_line = line.c_per_m * line.length;
  return driver_ohms * (c_line + load_farads) +
         r_line * (0.5 * c_line + load_farads);
}

}  // namespace ind::design
