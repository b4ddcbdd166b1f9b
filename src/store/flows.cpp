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

void put_sizes(ByteWriter& w, const std::vector<std::size_t>& v) {
  w.u64(v.size());
  for (std::size_t x : v) w.u64(x);
}

std::vector<std::size_t> get_sizes(ByteReader& r) {
  const std::uint64_t n = r.count(r.u64(), sizeof(std::uint64_t));
  std::vector<std::size_t> v(n);
  for (auto& x : v) x = r.u64();
  return v;
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

void hash_peec_options(Hasher& h, const peec::PeecOptions& o) {
  h.boolean(o.rc_only);
  h.u8(static_cast<std::uint8_t>(o.mutual_policy));
  h.f64(o.mutual_window);
  h.f64(o.coupling_window);
  h.f64(o.max_segment_length);
  h.f64(o.vdd);
  h.boolean(o.decap.enable);
  h.f64(o.decap.total_capacitance);
  h.f64(o.decap.series_tau);
  h.i64(o.decap.sites);
  h.boolean(o.background.enable);
  h.i64(o.background.sources);
  h.f64(o.background.peak_current);
  h.i64(o.background.pulses);
  h.f64(o.background.window);
  h.u64(o.background.seed);
  h.boolean(o.package.include);
  h.f64(o.package.resistance_scale);
  h.f64(o.package.inductance_scale);
  h.boolean(o.substrate.enable);
  h.f64(o.substrate.pitch);
  h.f64(o.substrate.sheet_resistance);
  h.f64(o.substrate.tap_resistance);
  h.i64(o.substrate.taps_per_side);
  h.f64(o.substrate.nwell_cap_total);
  h.i64(o.substrate.max_nodes_per_axis);
  h.f64(o.snap);
}

void hash_matrix(Hasher& h, const la::Matrix& m) {
  h.u64(m.rows());
  h.u64(m.cols());
  h.bytes(m.data(), m.rows() * m.cols() * sizeof(double));
}

void hash_matrix(Hasher& h, const la::CscMatrix& m) {
  h.str("csc");
  h.u64(m.rows());
  h.u64(m.cols());
  for (std::size_t p : m.col_ptr()) h.u64(p);
  h.u64(m.nnz());
  for (std::size_t i : m.row_idx()) h.u64(i);
  h.f64s(m.values());
}

Digest fingerprint(const geom::Layout& layout, const peec::PeecOptions& opts) {
  Hasher h = fingerprint_base("peec_model");
  hash_layout(h, layout);
  hash_peec_options(h, opts);
  return h.digest();
}

Digest fingerprint_prima(const la::CscMatrix& g, const la::CscMatrix& c,
                         const la::Matrix& b, const la::Matrix& l,
                         const mor::PrimaOptions& opts) {
  Hasher h = fingerprint_base("prima_rom");
  hash_matrix(h, g);
  hash_matrix(h, c);
  hash_matrix(h, b);
  hash_matrix(h, l);
  h.u64(opts.max_order);
  h.f64(opts.s0);
  h.f64(opts.deflation_tol);
  return h.digest();
}

Digest fingerprint_kmatrix(const la::Matrix& partial_l,
                           double threshold_ratio) {
  Hasher h = fingerprint_base("kmatrix");
  hash_matrix(h, partial_l);
  h.f64(threshold_ratio);
  return h.digest();
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
