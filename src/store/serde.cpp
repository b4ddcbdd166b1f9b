#include "store/serde.hpp"

#include <cstring>

#include "store/artifact_cache.hpp"

namespace ind::store::serde {
namespace {

template <typename T>
void put_dense(ByteWriter& w, const la::DenseMatrix<T>& m) {
  w.u64(m.rows());
  w.u64(m.cols());
  w.raw(m.data(), m.rows() * m.cols() * sizeof(T));
}

template <typename T>
void get_dense(ByteReader& r, la::DenseMatrix<T>& m) {
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  if (cols != 0 && rows > r.remaining() / cols)  // also rejects overflow
    throw StoreError(StoreErrc::Truncated, "matrix dims exceed payload");
  const std::uint64_t total = r.count(rows * cols, sizeof(T));
  m.resize(rows, cols);
  r.raw(m.data(), total * sizeof(T));
}

}  // namespace

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

void put(ByteWriter& w, const la::Matrix& m) { put_dense(w, m); }
void get(ByteReader& r, la::Matrix& m) { get_dense(r, m); }
void put(ByteWriter& w, const la::CMatrix& m) { put_dense(w, m); }
void get(ByteReader& r, la::CMatrix& m) { get_dense(r, m); }

void put(ByteWriter& w, const la::TripletMatrix& m) {
  w.u64(m.rows());
  w.u64(m.cols());
  w.u64(m.entry_count());
  for (const auto& e : m.entries()) {
    w.u64(e.row);
    w.u64(e.col);
    w.f64(e.value);
  }
}

void get(ByteReader& r, la::TripletMatrix& m) {
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  m = la::TripletMatrix(rows, cols);
  const std::uint64_t n = r.count(r.u64(), 3 * sizeof(std::uint64_t));
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::uint64_t i = r.u64();
    const std::uint64_t j = r.u64();
    m.add(i, j, r.f64());
  }
}

void put(ByteWriter& w, const la::CscMatrix& m) {
  w.u64(m.rows());
  w.u64(m.cols());
  put_sizes(w, m.col_ptr());
  put_sizes(w, m.row_idx());
  w.f64s(m.values());
}

void get(ByteReader& r, la::CscMatrix& m) {
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  auto col_ptr = get_sizes(r);
  auto row_idx = get_sizes(r);
  auto values = r.f64s();
  try {
    m = la::CscMatrix(rows, cols, std::move(col_ptr), std::move(row_idx),
                      std::move(values));
  } catch (const std::invalid_argument& e) {
    throw StoreError(StoreErrc::Malformed, e.what());
  }
}

void put(ByteWriter& w, const sparsify::SparsifiedL& s) {
  w.f64s(s.diag);
  w.u64(s.terms.size());
  for (const auto& t : s.terms) {
    w.u64(t.i);
    w.u64(t.j);
    w.f64(t.value);
  }
  w.boolean(s.use_kmatrix);
  w.u64(s.k_entries.size());
  for (const auto& k : s.k_entries) {
    w.u64(k.i);
    w.u64(k.j);
    w.f64(k.value);
  }
}

void get(ByteReader& r, sparsify::SparsifiedL& s) {
  s = sparsify::SparsifiedL{};
  s.diag = r.f64s();
  const std::uint64_t nt = r.count(r.u64(), 3 * sizeof(std::uint64_t));
  s.terms.resize(nt);
  for (auto& t : s.terms) {
    t.i = r.u64();
    t.j = r.u64();
    t.value = r.f64();
  }
  s.use_kmatrix = r.boolean();
  const std::uint64_t nk = r.count(r.u64(), 3 * sizeof(std::uint64_t));
  s.k_entries.resize(nk);
  for (auto& k : s.k_entries) {
    k.i = r.u64();
    k.j = r.u64();
    k.value = r.f64();
  }
}

void put(ByteWriter& w, const geom::Technology& t) {
  w.u64(t.layers.size());
  for (const geom::Layer& l : t.layers) {
    w.i32(l.index);
    w.f64(l.z_bottom);
    w.f64(l.thickness);
    w.f64(l.sheet_resistance);
    w.u8(l.preferred == geom::Axis::X ? 0 : 1);
    w.f64(l.dielectric_below);
  }
  w.f64(t.epsilon_r);
  w.f64(t.via_resistance);
  w.f64(t.substrate_z);
}

void get(ByteReader& r, geom::Technology& t) {
  t = geom::Technology{};
  const std::uint64_t n = r.count(r.u64(), 4 + 4 * sizeof(double) + 1);
  t.layers.resize(n);
  for (geom::Layer& l : t.layers) {
    l.index = r.i32();
    l.z_bottom = r.f64();
    l.thickness = r.f64();
    l.sheet_resistance = r.f64();
    l.preferred = r.u8() == 0 ? geom::Axis::X : geom::Axis::Y;
    l.dielectric_below = r.f64();
  }
  t.epsilon_r = r.f64();
  t.via_resistance = r.f64();
  t.substrate_z = r.f64();
}

void put(ByteWriter& w, const geom::Layout& l) {
  put(w, l.tech());
  w.u64(l.num_nets());
  for (std::size_t n = 0; n < l.num_nets(); ++n) {
    const geom::NetInfo& net = l.net(static_cast<int>(n));
    w.str(net.name);
    w.u8(static_cast<std::uint8_t>(net.kind));
  }
  w.u64(l.segments().size());
  for (const geom::Segment& s : l.segments()) {
    w.f64(s.a.x); w.f64(s.a.y);
    w.f64(s.b.x); w.f64(s.b.y);
    w.f64(s.width);
    w.f64(s.thickness);
    w.f64(s.z);
    w.i32(s.layer);
    w.i32(s.net);
    w.u8(static_cast<std::uint8_t>(s.kind));
  }
  w.u64(l.vias().size());
  for (const geom::Via& v : l.vias()) {
    w.f64(v.at.x); w.f64(v.at.y);
    w.i32(v.lower_layer);
    w.i32(v.upper_layer);
    w.i32(v.cuts);
    w.i32(v.net);
  }
  w.u64(l.pads().size());
  for (const geom::Pad& p : l.pads()) {
    w.f64(p.at.x); w.f64(p.at.y);
    w.i32(p.layer);
    w.u8(static_cast<std::uint8_t>(p.kind));
    w.f64(p.resistance);
    w.f64(p.inductance);
  }
  w.u64(l.drivers().size());
  for (const geom::Driver& d : l.drivers()) {
    w.f64(d.at.x); w.f64(d.at.y);
    w.i32(d.layer);
    w.i32(d.signal_net);
    w.f64(d.strength_ohm);
    w.f64(d.slew);
    w.f64(d.start_time);
    w.boolean(d.rising);
    w.str(d.name);
  }
  w.u64(l.receivers().size());
  for (const geom::Receiver& rc : l.receivers()) {
    w.f64(rc.at.x); w.f64(rc.at.y);
    w.i32(rc.layer);
    w.i32(rc.signal_net);
    w.f64(rc.load_cap);
    w.str(rc.name);
  }
}

void get(ByteReader& r, geom::Layout& l) {
  geom::Technology tech;
  get(r, tech);
  l = geom::Layout(std::move(tech));
  const std::uint64_t n_nets = r.count(r.u64(), 1);
  for (std::uint64_t n = 0; n < n_nets; ++n) {
    std::string name = r.str();
    const auto kind = r.enum8(geom::NetKind::Substrate);
    l.add_net(std::move(name), kind);
  }
  const std::uint64_t n_segs = r.count(r.u64(), 7 * sizeof(double) + 9);
  for (std::uint64_t k = 0; k < n_segs; ++k) {
    geom::Segment s;
    s.a.x = r.f64(); s.a.y = r.f64();
    s.b.x = r.f64(); s.b.y = r.f64();
    s.width = r.f64();
    s.thickness = r.f64();
    s.z = r.f64();
    s.layer = r.i32();
    s.net = r.i32();
    s.kind = r.enum8(geom::NetKind::Substrate);
    l.add_segment(s);
  }
  const std::uint64_t n_vias = r.count(r.u64(), 2 * sizeof(double) + 16);
  for (std::uint64_t k = 0; k < n_vias; ++k) {
    geom::Point at{r.f64(), r.f64()};
    const int lower = r.i32();
    const int upper = r.i32();
    const int cuts = r.i32();
    const int net = r.i32();
    l.add_via(net, at, lower, upper, cuts);
  }
  const std::uint64_t n_pads = r.count(r.u64(), 4 * sizeof(double) + 5);
  for (std::uint64_t k = 0; k < n_pads; ++k) {
    geom::Pad p;
    p.at.x = r.f64(); p.at.y = r.f64();
    p.layer = r.i32();
    p.kind = r.enum8(geom::NetKind::Substrate);
    p.resistance = r.f64();
    p.inductance = r.f64();
    l.add_pad(p);
  }
  const std::uint64_t n_drv = r.count(r.u64(), 5 * sizeof(double) + 9);
  for (std::uint64_t k = 0; k < n_drv; ++k) {
    geom::Driver d;
    d.at.x = r.f64(); d.at.y = r.f64();
    d.layer = r.i32();
    d.signal_net = r.i32();
    d.strength_ohm = r.f64();
    d.slew = r.f64();
    d.start_time = r.f64();
    d.rising = r.boolean();
    d.name = r.str();
    l.add_driver(std::move(d));
  }
  const std::uint64_t n_rcv = r.count(r.u64(), 3 * sizeof(double) + 8);
  for (std::uint64_t k = 0; k < n_rcv; ++k) {
    geom::Receiver rc;
    rc.at.x = r.f64(); rc.at.y = r.f64();
    rc.layer = r.i32();
    rc.signal_net = r.i32();
    rc.load_cap = r.f64();
    rc.name = r.str();
    l.add_receiver(std::move(rc));
  }
}

void put(ByteWriter& w, const extract::Extraction& x) {
  w.f64s(x.resistance);
  w.f64s(x.ground_cap);
  put(w, x.partial_l);
  w.u64(x.coupling.size());
  for (const extract::CouplingCap& c : x.coupling) {
    w.u64(c.i);
    w.u64(c.j);
    w.f64(c.value);
  }
  w.f64s(x.via_resistance);
}

void get(ByteReader& r, extract::Extraction& x) {
  x = extract::Extraction{};
  x.resistance = r.f64s();
  x.ground_cap = r.f64s();
  get(r, x.partial_l);
  const std::uint64_t n = r.count(r.u64(), 3 * sizeof(std::uint64_t));
  x.coupling.resize(n);
  for (auto& c : x.coupling) {
    c.i = r.u64();
    c.j = r.u64();
    c.value = r.f64();
  }
  x.via_resistance = r.f64s();
}

void put(ByteWriter& w, const robust::SolveReport& rep) {
  w.u8(static_cast<std::uint8_t>(rep.status));
  w.f64(rep.condition_estimate);
  w.f64(rep.pivot_growth);
  w.f64(rep.residual_norm);
  w.u64(rep.actions.size());
  for (const robust::RecoveryAction& a : rep.actions) {
    w.u8(static_cast<std::uint8_t>(a.kind));
    w.i32(a.attempt);
    w.f64(a.magnitude);
    w.str(a.where);
  }
  w.str(rep.detail);
}

void get(ByteReader& r, robust::SolveReport& rep) {
  rep = robust::SolveReport{};
  rep.status = r.enum8(robust::SolveStatus::Failed);
  rep.condition_estimate = r.f64();
  rep.pivot_growth = r.f64();
  rep.residual_norm = r.f64();
  const std::uint64_t n = r.count(r.u64(), 2 * sizeof(double) + 5);
  rep.actions.resize(n);
  for (auto& a : rep.actions) {
    a.kind = r.enum8(robust::RecoveryKind::GmresRestart);
    a.attempt = r.i32();
    a.magnitude = r.f64();
    a.where = r.str();
  }
  rep.detail = r.str();
}

}  // namespace ind::store::serde

namespace ind::store {

Digest fingerprint(const geom::Layout& layout,
                   const extract::ExtractionOptions& opts) {
  return artifact_key("extraction", [&](ByteWriter& w) {
    serde::put(w, layout);
    w.f64(opts.mutual_window);
    w.f64(opts.coupling_window);
    w.boolean(opts.extract_inductance);
  });
}

extract::Extraction cached_extraction(const geom::Layout& layout,
                                      const extract::ExtractionOptions& opts) {
  return cached<extract::Extraction>(
      "extraction", [&] { return fingerprint(layout, opts); },
      [&] { return extract::extract(layout, opts); },
      [](ByteWriter& w, const extract::Extraction& x) { serde::put(w, x); },
      [](ByteReader& r, extract::Extraction& x) { serde::get(r, x); });
}

}  // namespace ind::store
