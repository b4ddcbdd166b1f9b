#include "design/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "circuit/waveform.hpp"
#include "extract/partial_inductance.hpp"

namespace ind::design {

double loop_inductance_at(const geom::Layout& layout, int net, double freq,
                          const loop::LoopExtractionOptions& opts) {
  return loop::extract_loop_rl(layout, net, {freq}, opts)[0].inductance;
}

double net_mutual_inductance(const geom::Layout& layout, int net_a, int net_b,
                             double max_segment_length) {
  const geom::Layout refined = geom::refine(layout, max_segment_length);
  const auto& segs = refined.segments();
  double acc = 0.0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (segs[i].net != net_a) continue;
    for (std::size_t j = 0; j < segs.size(); ++j) {
      if (segs[j].net != net_b) continue;
      acc += extract::mutual_between(segs[i], segs[j]);
    }
  }
  return acc;
}

double net_loop_mutual(const geom::Layout& layout, int aggressor_net,
                       int victim_net, int return_net,
                       double max_segment_length) {
  return net_mutual_inductance(layout, aggressor_net, victim_net,
                               max_segment_length) -
         net_mutual_inductance(layout, aggressor_net, return_net,
                               max_segment_length);
}

double pair_loop_mutual(const geom::Layout& layout, int a_plus, int a_minus,
                        int v_plus, int v_minus, double max_segment_length) {
  return net_loop_mutual(layout, a_plus, v_plus, v_minus, max_segment_length) -
         net_loop_mutual(layout, a_minus, v_plus, v_minus, max_segment_length);
}

double net_coupling_capacitance(const geom::Layout& layout, int net_a,
                                int net_b, double coupling_window) {
  const auto& segs = layout.segments();
  double acc = 0.0;
  for (const auto& [i, j] : layout.adjacent_pairs(coupling_window)) {
    const bool ab = segs[i].net == net_a && segs[j].net == net_b;
    const bool ba = segs[i].net == net_b && segs[j].net == net_a;
    if (!ab && !ba) continue;
    acc += extract::segment_coupling_cap(segs[i], segs[j], layout.tech());
  }
  return acc;
}

NoiseResult victim_noise(const geom::Layout& layout,
                         const std::vector<int>& aggressor_nets,
                         int victim_net, const peec::PeecOptions& peec_opts,
                         const circuit::TransientOptions& tran_opts) {
  // Quiet every driver that is not an aggressor: its transition is pushed
  // far beyond the simulation window so it just holds its initial level.
  geom::Layout work = layout;
  for (geom::Driver& d : work.drivers()) {
    const bool aggressor =
        std::find(aggressor_nets.begin(), aggressor_nets.end(),
                  d.signal_net) != aggressor_nets.end();
    if (!aggressor) d.start_time = 1e3;  // effectively never
  }

  peec::PeecModel model = peec::build_peec_model(work, peec_opts);

  // Probe the victim's receiver.
  const geom::Receiver* victim = nullptr;
  for (const geom::Receiver& r : model.layout.receivers())
    if (r.signal_net == victim_net) {
      victim = &r;
      break;
    }
  if (!victim)
    throw std::invalid_argument("victim_noise: victim net has no receiver");

  std::vector<circuit::Probe> probes;
  for (std::size_t i = 0; i < model.receiver_probes.size(); ++i)
    if (model.receiver_names[i] == victim->name)
      probes.push_back(model.receiver_probes[i]);
  const circuit::TransientResult res =
      circuit::transient(model.netlist, probes, tran_opts);

  NoiseResult out;
  const la::Vector& w = res.samples.at(0);
  // Victim drivers hold low, so nominal is the initial level.
  out.peak_volts = circuit::peak_noise(w, w.front());
  return out;
}

}  // namespace ind::design
