#include "loop/loop_model.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "extract/capacitance.hpp"
#include "extract/resistance.hpp"
#include "la/sparse.hpp"
#include "la/sparse_lu.hpp"

namespace ind::loop {

LoopModel build_loop_model(const geom::Layout& layout, int signal_net,
                           const LoopModelOptions& opts) {
  LoopModel m;
  m.vdd_volts = opts.vdd;

  // --- field-solver extraction (timed: it is part of the Table-1 run-time).
  const auto t0 = std::chrono::steady_clock::now();
  if (opts.use_ladder) {
    const auto sweep = extract_loop_rl(
        layout, signal_net, {opts.f_low, opts.f_high}, opts.extraction);
    m.ladder = fit_ladder(sweep[0], sweep[1]);
    m.extracted = sweep[0];
  } else {
    m.extracted = extract_loop_rl(layout, signal_net, {opts.extraction_freq},
                                  opts.extraction)[0];
  }
  m.extraction_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // --- distribute loop R/L along the signal-net segments by length.
  const geom::Layout refined = geom::refine(layout, opts.max_segment_length);
  const geom::Technology& tech = refined.tech();
  std::vector<std::size_t> sig_segments;
  double total_len = 0.0;
  for (std::size_t i = 0; i < refined.segments().size(); ++i) {
    if (refined.segments()[i].net != signal_net) continue;
    sig_segments.push_back(i);
    total_len += refined.segments()[i].length();
  }
  if (sig_segments.empty() || total_len <= 0.0)
    throw std::invalid_argument("build_loop_model: net has no wires");

  circuit::Netlist& nl = m.netlist;
  // Node per signal-segment endpoint (snap-keyed like the PEEC builder).
  std::unordered_map<std::uint64_t, circuit::NodeId> node_map;
  auto node_key = [](const geom::Point& p, int layer) {
    const auto qx = static_cast<std::int64_t>(std::llround(p.x / 1e-9));
    const auto qy = static_cast<std::int64_t>(std::llround(p.y / 1e-9));
    return (static_cast<std::uint64_t>(layer) << 56) |
           (static_cast<std::uint64_t>(qx + (1LL << 27)) << 28) |
           static_cast<std::uint64_t>(qy + (1LL << 27));
  };
  auto get_node = [&](const geom::Point& p, int layer) {
    const std::uint64_t key = node_key(p, layer);
    const auto it = node_map.find(key);
    if (it != node_map.end()) return it->second;
    const circuit::NodeId id = nl.make_node();
    node_map.emplace(key, id);
    return id;
  };

  // Driving-point resistance of the signal tree alone (driver to shorted
  // sinks): the extracted loop resistance beyond this is the *return-path*
  // contribution, which gets distributed along the run by length. Keeping
  // each segment's own DC resistance preserves per-path (skew-relevant)
  // resistance in tree topologies.
  double r_return = 0.0;
  {
    std::unordered_map<std::uint64_t, std::size_t> idx;
    auto dp_node = [&](const geom::Point& p, int layer) {
      const std::uint64_t key = node_key(p, layer);
      const auto it = idx.find(key);
      if (it != idx.end()) return it->second;
      const std::size_t id = idx.size();
      idx.emplace(key, id);
      return id;
    };
    la::TripletMatrix g;
    std::vector<std::array<std::size_t, 2>> branches;
    std::vector<double> conductances;
    for (std::size_t s : sig_segments) {
      const geom::Segment& seg = refined.segments()[s];
      branches.push_back({dp_node(seg.a, seg.layer), dp_node(seg.b, seg.layer)});
      conductances.push_back(
          1.0 / std::max(extract::segment_resistance(seg, tech), 1e-9));
    }
    for (const geom::Via& v : refined.vias()) {
      if (v.net != signal_net) continue;
      const auto ka = idx.find(node_key(v.at, v.lower_layer));
      const auto kb = idx.find(node_key(v.at, v.upper_layer));
      if (ka == idx.end() || kb == idx.end()) continue;
      branches.push_back({ka->second, kb->second});
      conductances.push_back(
          1.0 / std::max(extract::via_resistance(v, tech), 1e-6));
    }
    // Ground every sink node; solve for the driver-node voltage with 1 A in.
    std::vector<char> grounded(idx.size(), 0);
    for (const geom::Receiver& r : refined.receivers())
      if (r.signal_net == signal_net) {
        const auto it = idx.find(node_key(r.at, r.layer));
        if (it != idx.end()) grounded[it->second] = 1;
      }
    std::size_t driver_node = idx.size();
    for (const geom::Driver& d : refined.drivers())
      if (d.signal_net == signal_net) {
        const auto it = idx.find(node_key(d.at, d.layer));
        if (it != idx.end()) driver_node = it->second;
      }
    if (driver_node < idx.size()) {
      g.resize(idx.size(), idx.size());
      for (std::size_t b = 0; b < branches.size(); ++b) {
        const auto [na, nb] = branches[b];
        const double cond = conductances[b];
        g.add(na, na, cond);
        g.add(nb, nb, cond);
        g.add(na, nb, -cond);
        g.add(nb, na, -cond);
      }
      for (std::size_t n = 0; n < idx.size(); ++n) {
        g.add(n, n, 1e-12);  // gmin
        if (grounded[n]) g.add(n, n, 1e12);
      }
      la::Vector rhs(idx.size(), 0.0);
      rhs[driver_node] = 1.0;
      const la::Vector v = la::SparseLu(la::CscMatrix(g)).solve(rhs);
      const double r_dp = v[driver_node];
      r_return = std::max(m.extracted.resistance - r_dp, 0.0);
    }
  }

  // Coupling capacitance from the signal to any other conductor loads the
  // net too; with the aggressors treated as AC ground (the standard lumped
  // simplification) it adds to the per-segment ground capacitance.
  std::vector<double> coupling_extra(refined.segments().size(), 0.0);
  for (const auto& [i, j] : refined.adjacent_pairs(geom::um(5.0))) {
    const auto& si = refined.segments()[i];
    const auto& sj = refined.segments()[j];
    const bool i_sig = si.net == signal_net, j_sig = sj.net == signal_net;
    if (i_sig == j_sig) continue;  // need exactly one signal segment
    const double c = extract::segment_coupling_cap(si, sj, tech);
    coupling_extra[i_sig ? i : j] += c;
  }

  for (std::size_t idx : sig_segments) {
    const geom::Segment& s = refined.segments()[idx];
    const circuit::NodeId na = get_node(s.a, s.layer);
    const circuit::NodeId nb = get_node(s.b, s.layer);
    const double frac = s.length() / total_len;

    // Series resistance: the segment's own metal plus its length-share of
    // the extracted return-path resistance.
    const double r_series = extract::segment_resistance(s, tech) +
                            r_return * frac;
    if (m.ladder && m.ladder->has_parallel_branch()) {
      // Scaled ladder section: R0,L0 in series; R1 || L1 across the tail.
      const circuit::NodeId mid1 = nl.make_node();
      const circuit::NodeId mid2 = nl.make_node();
      nl.add_inductor(na, mid1, std::max(m.ladder->l0 * frac, 1e-15));
      nl.add_resistor(mid1, mid2, std::max(r_series, 1e-6));
      nl.add_resistor(mid2, nb, std::max(m.ladder->r1 * frac, 1e-6));
      nl.add_inductor(mid2, nb, std::max(m.ladder->l1 * frac, 1e-15));
    } else {
      const circuit::NodeId mid = nl.make_node();
      nl.add_inductor(na, mid, std::max(m.extracted.inductance * frac, 1e-15));
      nl.add_resistor(mid, nb, std::max(r_series, 1e-6));
    }

    const double cg =
        extract::segment_ground_cap(s, tech) + coupling_extra[idx];
    nl.add_capacitor(na, circuit::kGround, 0.5 * cg);
    nl.add_capacitor(nb, circuit::kGround, 0.5 * cg);
    m.total_cap += cg;
  }

  // --- vias on the signal net keep their real resistance.
  for (const geom::Via& v : refined.vias()) {
    if (v.net != signal_net) continue;
    const auto qa = get_node(v.at, v.lower_layer);
    const auto qb = get_node(v.at, v.upper_layer);
    if (qa != qb)
      nl.add_resistor(qa, qb, std::max(extract::via_resistance(v, tech), 1e-6));
  }

  // --- drivers to ideal rails (the loop model has no grid).
  const circuit::NodeId ideal_vdd = nl.make_node();
  nl.add_vsource(ideal_vdd, circuit::kGround, circuit::Pwl::constant(opts.vdd));
  for (const geom::Driver& d : refined.drivers()) {
    if (d.signal_net != signal_net) continue;
    circuit::SwitchedDriver drv;
    drv.out = get_node(d.at, d.layer);
    drv.vdd = ideal_vdd;
    drv.gnd = circuit::kGround;
    drv.pull_ohms = d.strength_ohm;
    drv.slew = d.slew;
    drv.start = d.start_time;
    drv.rising = d.rising;
    drv.name = d.name;
    nl.add_driver(std::move(drv));
  }

  for (const geom::Receiver& r : refined.receivers()) {
    if (r.signal_net != signal_net) continue;
    const circuit::NodeId pin = get_node(r.at, r.layer);
    nl.add_capacitor(pin, circuit::kGround, r.load_cap);
    m.total_cap += r.load_cap;
    m.receiver_probes.push_back({circuit::ProbeKind::NodeVoltage,
                                 static_cast<std::size_t>(pin), r.name});
    m.receiver_names.push_back(r.name);
  }
  return m;
}

}  // namespace ind::loop
