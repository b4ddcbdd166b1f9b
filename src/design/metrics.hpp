// Design-technique evaluation metrics (Section 7).
//
// Each guideline in the paper — shielding, ground planes, inter-digitation,
// staggered repeaters, twisted bundles — claims a reduction in loop
// inductance or coupling noise. These helpers quantify both claims on real
// extracted models so the Section-7 benches can reproduce Figs. 5-9.
#pragma once

#include <vector>

#include "circuit/transient.hpp"
#include "extract/extractor.hpp"
#include "geom/layout.hpp"
#include "loop/port_extractor.hpp"
#include "peec/model_builder.hpp"

namespace ind::design {

/// Loop inductance (henries) of `net` at one frequency, using the Section-5
/// extraction setup (port at driver, receivers shorted to local ground).
double loop_inductance_at(const geom::Layout& layout, int net, double freq,
                          const loop::LoopExtractionOptions& opts = {});

/// Signed net-to-net mutual partial inductance: sum of M_ij over segment
/// pairs (i in net_a, j in net_b). Opposing current loops contribute with
/// opposite signs, so twisted bundles drive this toward zero while parallel
/// bundles accumulate it.
double net_mutual_inductance(const geom::Layout& layout, int net_a, int net_b,
                             double max_segment_length = geom::um(100.0));

/// Loop-referenced mutual coupling: the flux an aggressor's current couples
/// into the *loop* formed by the victim and its return conductor,
///   M_loop = M(aggressor, victim) - M(aggressor, return).
/// This is the quantity the twisted-bundle layout cancels (Fig. 9): position
/// swaps flip which of the two terms dominates, so the regions' signed
/// contributions alternate.
double net_loop_mutual(const geom::Layout& layout, int aggressor_net,
                       int victim_net, int return_net,
                       double max_segment_length = geom::um(100.0));

/// Loop-to-loop mutual between two complementary pairs (a+, a-) and
/// (v+, v-): the aggressor current flows out on a+ and back on a-, the
/// victim loop is spanned by v+ and v-. This is the flux the twisted-bundle
/// structure drives to zero:
///   M = [M(a+,v+) - M(a+,v-)] - [M(a-,v+) - M(a-,v-)].
double pair_loop_mutual(const geom::Layout& layout, int a_plus, int a_minus,
                        int v_plus, int v_minus,
                        double max_segment_length = geom::um(100.0));

/// Net-to-net coupling capacitance (farads) over adjacent segment pairs.
double net_coupling_capacitance(const geom::Layout& layout, int net_a,
                                int net_b,
                                double coupling_window = geom::um(5.0));

struct NoiseResult {
  double peak_volts = 0.0;       ///< worst deviation at the victim sink
  double victim_delay = 0.0;     ///< 50% delay if the victim also switches (else 0)
};

/// Crosstalk experiment: the listed aggressor nets switch, every other
/// driver is held quiet, and the victim receiver's waveform is measured.
NoiseResult victim_noise(const geom::Layout& layout,
                         const std::vector<int>& aggressor_nets,
                         int victim_net, const peec::PeecOptions& peec_opts,
                         const circuit::TransientOptions& tran_opts);

}  // namespace ind::design
