#include "store/flows.hpp"

#include "sparsify/kmatrix.hpp"
#include "store/artifact_cache.hpp"

namespace ind::store::serde {
namespace {

void put_pwl(ByteWriter& w, const circuit::Pwl& pwl) {
  w.u64(pwl.points().size());
  for (const auto& [t, v] : pwl.points()) {
    w.f64(t);
    w.f64(v);
  }
}

circuit::Pwl get_pwl(ByteReader& r) {
  const std::uint64_t n = r.count(r.u64(), 2 * sizeof(double));
  std::vector<std::pair<double, double>> pts(n);
  for (auto& [t, v] : pts) {
    t = r.f64();
    v = r.f64();
  }
  return pts.empty() ? circuit::Pwl{} : circuit::Pwl(std::move(pts));
}

void put_nodes(ByteWriter& w, const std::vector<circuit::NodeId>& v) {
  w.u64(v.size());
  for (circuit::NodeId n : v) w.i32(n);
}

std::vector<circuit::NodeId> get_nodes(ByteReader& r) {
  const std::uint64_t n = r.count(r.u64(), 4);
  std::vector<circuit::NodeId> v(n);
  for (auto& x : v) x = r.i32();
  return v;
}

}  // namespace

void put(ByteWriter& w, const circuit::Netlist& nl) {
  w.u64(nl.num_nodes());
  w.u64(nl.resistors().size());
  for (const auto& e : nl.resistors()) {
    w.i32(e.a); w.i32(e.b); w.f64(e.ohms);
  }
  w.u64(nl.capacitors().size());
  for (const auto& e : nl.capacitors()) {
    w.i32(e.a); w.i32(e.b); w.f64(e.farads);
  }
  w.u64(nl.inductors().size());
  for (const auto& e : nl.inductors()) {
    w.i32(e.a); w.i32(e.b); w.f64(e.henries);
  }
  w.u64(nl.mutuals().size());
  for (const auto& e : nl.mutuals()) {
    w.u64(e.i); w.u64(e.j); w.f64(e.henries);
  }
  w.u64(nl.kmatrix_groups().size());
  for (const auto& g : nl.kmatrix_groups()) {
    put_sizes(w, g.inductors);
    w.u64(g.entries.size());
    for (const auto& e : g.entries) {
      w.u64(e.row); w.u64(e.col); w.f64(e.value);
    }
  }
  w.u64(nl.vsources().size());
  for (const auto& e : nl.vsources()) {
    w.i32(e.a); w.i32(e.b); put_pwl(w, e.waveform);
  }
  w.u64(nl.isources().size());
  for (const auto& e : nl.isources()) {
    w.i32(e.a); w.i32(e.b); put_pwl(w, e.waveform);
  }
  w.u64(nl.drivers().size());
  for (const auto& d : nl.drivers()) {
    w.i32(d.out); w.i32(d.vdd); w.i32(d.gnd);
    w.f64(d.pull_ohms);
    w.f64(d.slew);
    w.f64(d.start);
    w.boolean(d.rising);
    w.f64(d.overlap);
    w.i32(d.quantize_levels);
    w.str(d.name);
  }
}

void get(ByteReader& r, circuit::Netlist& nl) {
  nl = circuit::Netlist{};
  const std::uint64_t n_nodes = r.u64();
  for (std::uint64_t k = 0; k < n_nodes; ++k) nl.make_node();
  const std::uint64_t n_res = r.count(r.u64(), 8 + sizeof(double));
  for (std::uint64_t k = 0; k < n_res; ++k) {
    const circuit::NodeId a = r.i32();
    const circuit::NodeId b = r.i32();
    nl.add_resistor(a, b, r.f64());
  }
  const std::uint64_t n_cap = r.count(r.u64(), 8 + sizeof(double));
  for (std::uint64_t k = 0; k < n_cap; ++k) {
    const circuit::NodeId a = r.i32();
    const circuit::NodeId b = r.i32();
    nl.add_capacitor(a, b, r.f64());
  }
  const std::uint64_t n_ind = r.count(r.u64(), 8 + sizeof(double));
  for (std::uint64_t k = 0; k < n_ind; ++k) {
    const circuit::NodeId a = r.i32();
    const circuit::NodeId b = r.i32();
    nl.add_inductor(a, b, r.f64());
  }
  const std::uint64_t n_mut = r.count(r.u64(), 16 + sizeof(double));
  for (std::uint64_t k = 0; k < n_mut; ++k) {
    const std::size_t i = r.u64();
    const std::size_t j = r.u64();
    nl.add_mutual(i, j, r.f64());
  }
  const std::uint64_t n_kg = r.count(r.u64(), 8);
  for (std::uint64_t k = 0; k < n_kg; ++k) {
    circuit::KMatrixGroup g;
    g.inductors = get_sizes(r);
    const std::uint64_t ne = r.count(r.u64(), 16 + sizeof(double));
    g.entries.resize(ne);
    for (auto& e : g.entries) {
      e.row = r.u64();
      e.col = r.u64();
      e.value = r.f64();
    }
    nl.add_kmatrix_group(std::move(g));
  }
  const std::uint64_t n_vs = r.count(r.u64(), 16);
  for (std::uint64_t k = 0; k < n_vs; ++k) {
    const circuit::NodeId a = r.i32();
    const circuit::NodeId b = r.i32();
    nl.add_vsource(a, b, get_pwl(r));
  }
  const std::uint64_t n_is = r.count(r.u64(), 16);
  for (std::uint64_t k = 0; k < n_is; ++k) {
    const circuit::NodeId a = r.i32();
    const circuit::NodeId b = r.i32();
    nl.add_isource(a, b, get_pwl(r));
  }
  const std::uint64_t n_drv = r.count(r.u64(), 24);
  for (std::uint64_t k = 0; k < n_drv; ++k) {
    circuit::SwitchedDriver d;
    d.out = r.i32();
    d.vdd = r.i32();
    d.gnd = r.i32();
    d.pull_ohms = r.f64();
    d.slew = r.f64();
    d.start = r.f64();
    d.rising = r.boolean();
    d.overlap = r.f64();
    d.quantize_levels = r.i32();
    d.name = r.str();
    nl.add_driver(std::move(d));
  }
}

void put(ByteWriter& w, const peec::PeecOptions& p) {
  w.boolean(p.rc_only);
  w.u8(static_cast<std::uint8_t>(p.mutual_policy));
  w.f64(p.mutual_window);
  w.f64(p.coupling_window);
  w.f64(p.max_segment_length);
  w.f64(p.vdd);
  w.f64(p.snap);
  w.boolean(p.decap.enable);
  w.f64(p.decap.total_capacitance);
  w.f64(p.decap.series_tau);
  w.i32(p.decap.sites);
  w.boolean(p.background.enable);
  w.i32(p.background.sources);
  w.f64(p.background.peak_current);
  w.i32(p.background.pulses);
  w.f64(p.background.window);
  w.u64(p.background.seed);
  w.boolean(p.package.include);
  w.f64(p.package.resistance_scale);
  w.f64(p.package.inductance_scale);
  w.boolean(p.substrate.enable);
  w.f64(p.substrate.pitch);
  w.f64(p.substrate.sheet_resistance);
  w.f64(p.substrate.tap_resistance);
  w.i32(p.substrate.taps_per_side);
  w.f64(p.substrate.nwell_cap_total);
  w.i32(p.substrate.max_nodes_per_axis);
}

void get(ByteReader& r, peec::PeecOptions& p) {
  p.rc_only = r.boolean();
  p.mutual_policy = r.enum8(peec::PeecOptions::MutualPolicy::Full);
  p.mutual_window = r.f64();
  p.coupling_window = r.f64();
  p.max_segment_length = r.f64();
  p.vdd = r.f64();
  p.snap = r.f64();
  p.decap.enable = r.boolean();
  p.decap.total_capacitance = r.f64();
  p.decap.series_tau = r.f64();
  p.decap.sites = r.i32();
  p.background.enable = r.boolean();
  p.background.sources = r.i32();
  p.background.peak_current = r.f64();
  p.background.pulses = r.i32();
  p.background.window = r.f64();
  p.background.seed = r.u64();
  p.package.include = r.boolean();
  p.package.resistance_scale = r.f64();
  p.package.inductance_scale = r.f64();
  p.substrate.enable = r.boolean();
  p.substrate.pitch = r.f64();
  p.substrate.sheet_resistance = r.f64();
  p.substrate.tap_resistance = r.f64();
  p.substrate.taps_per_side = r.i32();
  p.substrate.nwell_cap_total = r.f64();
  p.substrate.max_nodes_per_axis = r.i32();
}

void put(ByteWriter& w, const peec::PeecModel& m) {
  put(w, m.netlist);
  put(w, m.layout);
  put(w, m.extraction);
  put_nodes(w, m.seg_a);
  put_nodes(w, m.seg_b);
  put_sizes(w, m.seg_inductor);
  w.u64(m.nodes.size());
  for (const peec::NodeInfo& n : m.nodes) {
    w.f64(n.at.x); w.f64(n.at.y);
    w.i32(n.layer);
    w.i32(n.net);
    w.u8(static_cast<std::uint8_t>(n.kind));
  }
  w.i32(m.ideal_vdd);
  put_nodes(w, m.substrate_nodes);
  w.u64(m.receiver_probes.size());
  for (const circuit::Probe& p : m.receiver_probes) {
    w.u8(static_cast<std::uint8_t>(p.kind));
    w.u64(p.index);
    w.str(p.name);
  }
  w.u64(m.receiver_names.size());
  for (const std::string& s : m.receiver_names) w.str(s);
  put_sizes(w, m.driver_indices);
  w.f64(m.vdd_volts);
}

void get(ByteReader& r, peec::PeecModel& m) {
  m = peec::PeecModel{};
  get(r, m.netlist);
  get(r, m.layout);
  get(r, m.extraction);
  m.seg_a = get_nodes(r);
  m.seg_b = get_nodes(r);
  m.seg_inductor = get_sizes(r);
  const std::uint64_t n_nodes = r.count(r.u64(), 2 * sizeof(double) + 9);
  m.nodes.resize(n_nodes);
  for (peec::NodeInfo& n : m.nodes) {
    n.at.x = r.f64(); n.at.y = r.f64();
    n.layer = r.i32();
    n.net = r.i32();
    n.kind = r.enum8(geom::NetKind::Substrate);
  }
  m.ideal_vdd = r.i32();
  m.substrate_nodes = get_nodes(r);
  const std::uint64_t n_probes = r.count(r.u64(), 17);
  m.receiver_probes.resize(n_probes);
  for (circuit::Probe& p : m.receiver_probes) {
    p.kind = r.enum8(circuit::ProbeKind::DriverPullDownCurrent);
    p.index = r.u64();
    p.name = r.str();
  }
  const std::uint64_t n_names = r.count(r.u64(), 8);
  m.receiver_names.resize(n_names);
  for (std::string& s : m.receiver_names) s = r.str();
  m.driver_indices = get_sizes(r);
  m.vdd_volts = r.f64();
}

void put(ByteWriter& w, const mor::ReducedModel& m) {
  put(w, m.g);
  put(w, m.c);
  put(w, m.b);
  put(w, m.l);
  put(w, m.v);
  put(w, m.report);
}

void get(ByteReader& r, mor::ReducedModel& m) {
  m = mor::ReducedModel{};
  get(r, m.g);
  get(r, m.c);
  get(r, m.b);
  get(r, m.l);
  get(r, m.v);
  get(r, m.report);
}

}  // namespace ind::store::serde

namespace ind::store {

Digest fingerprint(const geom::Layout& layout, const peec::PeecOptions& opts) {
  return artifact_key("peec_model", [&](ByteWriter& w) {
    serde::put(w, layout);
    serde::put(w, opts);
  });
}

Digest fingerprint_prima(const la::CscMatrix& g, const la::CscMatrix& c,
                         const la::Matrix& b, const la::Matrix& l,
                         const mor::PrimaOptions& opts) {
  return artifact_key("prima_rom", [&](ByteWriter& w) {
    serde::put(w, g);
    serde::put(w, c);
    serde::put(w, b);
    serde::put(w, l);
    w.u64(opts.max_order);
    w.f64(opts.s0);
    w.f64(opts.deflation_tol);
  });
}

Digest fingerprint_kmatrix(const la::Matrix& partial_l,
                           double threshold_ratio) {
  return artifact_key("kmatrix", [&](ByteWriter& w) {
    serde::put(w, partial_l);
    w.f64(threshold_ratio);
  });
}

peec::PeecModel cached_peec_model(const geom::Layout& input,
                                  const peec::PeecOptions& opts) {
  return cached<peec::PeecModel>(
      "peec_model", [&] { return fingerprint(input, opts); },
      [&] { return peec::build_peec_model(input, opts); },
      [](ByteWriter& w, const peec::PeecModel& m) { serde::put(w, m); },
      [](ByteReader& r, peec::PeecModel& m) { serde::get(r, m); });
}

mor::ReducedModel cached_prima_reduce(const la::CscMatrix& g,
                                      const la::CscMatrix& c,
                                      const la::Matrix& b, const la::Matrix& l,
                                      const mor::PrimaOptions& opts) {
  return cached<mor::ReducedModel>(
      "prima_rom", [&] { return fingerprint_prima(g, c, b, l, opts); },
      [&] { return mor::prima_reduce(g, c, b, l, opts); },
      [](ByteWriter& w, const mor::ReducedModel& m) { serde::put(w, m); },
      [](ByteReader& r, mor::ReducedModel& m) { serde::get(r, m); });
}

sparsify::SparsifiedL cached_kmatrix_sparsify(const la::Matrix& partial_l,
                                              double threshold_ratio) {
  return cached<sparsify::SparsifiedL>(
      "kmatrix",
      [&] { return fingerprint_kmatrix(partial_l, threshold_ratio); },
      [&] { return sparsify::kmatrix_sparsify(partial_l, threshold_ratio); },
      [](ByteWriter& w, const sparsify::SparsifiedL& s) { serde::put(w, s); },
      [](ByteReader& r, sparsify::SparsifiedL& s) { serde::get(r, s); });
}

}  // namespace ind::store
