// Unit tests for PRIMA and reduced-model co-simulation.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/mna.hpp"
#include "circuit/transient.hpp"
#include "circuit/waveform.hpp"
#include "la/lu.hpp"
#include "la/qr.hpp"
#include "mna_system.hpp"
#include "mor/prima.hpp"
#include "mor/reduced_model.hpp"

namespace {

using namespace ind;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Pwl;

// A 30-stage RC ladder driven by a vsource, observed at the far end.
Netlist rc_ladder(NodeId& in, NodeId& out, int stages = 30) {
  Netlist nl;
  in = nl.node("in");
  nl.add_vsource(in, kGround, Pwl({{0.0, 0.0}, {5e-12, 1.0}}));
  NodeId prev = in;
  for (int k = 0; k < stages; ++k) {
    const NodeId next = nl.make_node();
    nl.add_resistor(prev, next, 20.0);
    nl.add_capacitor(next, kGround, 10e-15);
    prev = next;
  }
  out = prev;
  return nl;
}

// H(jw) = L^T (G + jw C)^{-1} B of a full or reduced system: the
// frequency-domain oracle the reductions below are checked against.
la::CMatrix transfer_function(const la::Matrix& g, const la::Matrix& c,
                              const la::Matrix& b, const la::Matrix& l,
                              double omega) {
  const std::size_t n = g.rows();
  la::CMatrix a(n, n);
  const la::Complex jw{0.0, omega};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = la::Complex{g(i, j), 0.0} + jw * c(i, j);
  const la::CLU factor(std::move(a));

  la::CMatrix h(l.cols(), b.cols());
  la::CVector col(n);
  for (std::size_t p = 0; p < b.cols(); ++p) {
    for (std::size_t i = 0; i < n; ++i) col[i] = b(i, p);
    const la::CVector x = factor.solve(col);
    for (std::size_t m = 0; m < l.cols(); ++m) {
      la::Complex acc{};
      for (std::size_t i = 0; i < n; ++i) acc += l(i, m) * x[i];
      h(m, p) = acc;
    }
  }
  return h;
}

// Dense PRIMA oracle: the textbook algorithm on dense G and C (dense LU of
// G + s0 C, dense products, no recovery ladder). mor::prima_reduce must
// reproduce it on the sparse stamps to rounding level.
mor::ReducedModel dense_prima_reduce(const la::Matrix& g, const la::Matrix& c,
                                     const la::Matrix& b, const la::Matrix& l,
                                     const mor::PrimaOptions& opts) {
  const std::size_t n = g.rows();
  la::Matrix shifted = g;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) shifted(i, j) += opts.s0 * c(i, j);
  const la::LU factor(shifted);
  la::Matrix basis(n, 0);
  la::Matrix block = factor.solve(b);
  while (basis.cols() < opts.max_order && block.cols() > 0) {
    const la::QrResult qr =
        la::orthonormalize_against(block, basis, opts.deflation_tol);
    if (qr.rank == 0) break;
    const std::size_t take =
        std::min<std::size_t>(qr.rank, opts.max_order - basis.cols());
    la::Matrix taken(n, take);
    for (std::size_t j = 0; j < take; ++j)
      for (std::size_t i = 0; i < n; ++i) taken(i, j) = qr.q(i, j);
    basis = la::hcat(basis, taken);
    if (basis.cols() >= opts.max_order) break;
    block = factor.solve(c * taken);
  }
  mor::ReducedModel r;
  r.v = basis;
  const la::Matrix vt = basis.transposed();
  r.g = vt * (g * basis);
  r.c = vt * (c * basis);
  r.b = vt * b;
  r.l = vt * l;
  return r;
}

TEST(Prima, ReducedTransferMatchesFullAtLowFrequency) {
  NodeId in, out;
  const Netlist nl = rc_ladder(in, out);
  const test::MnaSystem sys = test::stamp_mna(nl);
  la::Matrix b(sys.g.rows(), 1);
  const circuit::Mna mna(nl);
  b(mna.vsource_branch(0), 0) = 1.0;
  la::Matrix l(sys.g.rows(), 1);
  l(static_cast<std::size_t>(out), 0) = 1.0;

  mor::PrimaOptions opts;
  opts.max_order = 8;
  const mor::ReducedModel red = mor::prima_reduce(sys.g, sys.c, b, l, opts);
  EXPECT_LE(red.order(), 8u);
  EXPECT_GT(red.order(), 0u);

  for (double f : {1e7, 1e8, 1e9}) {
    const double w = 2 * M_PI * f;
    const auto h_full = transfer_function(sys.g_dense, sys.c_dense, b, l, w);
    const auto h_red = transfer_function(red.g, red.c, red.b, red.l, w);
    const double err = std::abs(h_full(0, 0) - h_red(0, 0));
    EXPECT_LT(err, 0.02 * std::abs(h_full(0, 0)) + 1e-9)
        << "mismatch at f=" << f;
  }
}

TEST(Prima, HigherOrderIsMoreAccurate) {
  NodeId in, out;
  const Netlist nl = rc_ladder(in, out);
  const test::MnaSystem sys = test::stamp_mna(nl);
  la::Matrix b(sys.g.rows(), 1);
  const circuit::Mna mna(nl);
  b(mna.vsource_branch(0), 0) = 1.0;
  la::Matrix l(sys.g.rows(), 1);
  l(static_cast<std::size_t>(out), 0) = 1.0;

  const double w = 2 * M_PI * 5e9;  // away from the expansion point
  const auto h_full = transfer_function(sys.g_dense, sys.c_dense, b, l, w)(0, 0);
  double err_low, err_high;
  {
    mor::PrimaOptions o;
    o.max_order = 2;
    const auto red = mor::prima_reduce(sys.g, sys.c, b, l, o);
    err_low = std::abs(transfer_function(red.g, red.c, red.b, red.l, w)(0, 0) - h_full);
  }
  {
    mor::PrimaOptions o;
    o.max_order = 12;
    const auto red = mor::prima_reduce(sys.g, sys.c, b, l, o);
    err_high = std::abs(transfer_function(red.g, red.c, red.b, red.l, w)(0, 0) - h_full);
  }
  EXPECT_LT(err_high, err_low);
}

TEST(Prima, BasisIsOrthonormal) {
  NodeId in, out;
  const Netlist nl = rc_ladder(in, out, 10);
  const test::MnaSystem sys = test::stamp_mna(nl);
  la::Matrix b(sys.g.rows(), 1);
  const circuit::Mna mna(nl);
  b(mna.vsource_branch(0), 0) = 1.0;
  la::Matrix l(sys.g.rows(), 1);
  l(static_cast<std::size_t>(out), 0) = 1.0;
  const auto red = mor::prima_reduce(sys.g, sys.c, b, l, {});
  const la::Matrix vtv = red.v.transposed() * red.v;
  for (std::size_t i = 0; i < vtv.rows(); ++i)
    for (std::size_t j = 0; j < vtv.cols(); ++j)
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(Prima, ThrowsOnDimensionMismatch) {
  const la::CscMatrix g(la::TripletMatrix(3, 3)), c(la::TripletMatrix(3, 3));
  la::Matrix b(2, 1), l(3, 1);
  EXPECT_THROW(mor::prima_reduce(g, c, b, l, {}), std::invalid_argument);
}

// Co-simulation: reduced RC line driven by an external switched driver must
// match the flat transient simulation of the same circuit.
TEST(Cosim, MatchesFlatTransient) {
  // Flat reference: driver at the head of an RC ladder.
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId head = nl.node("head");
  nl.add_vsource(vdd, kGround, Pwl::constant(1.8));
  circuit::SwitchedDriver drv;
  drv.out = head;
  drv.vdd = vdd;
  drv.gnd = kGround;
  drv.pull_ohms = 40.0;
  drv.slew = 40e-12;
  drv.start = 50e-12;
  NodeId prev = head;
  for (int k = 0; k < 20; ++k) {
    const NodeId next = nl.make_node();
    nl.add_resistor(prev, next, 15.0);
    nl.add_capacitor(next, kGround, 8e-15);
    prev = next;
  }
  const NodeId out = prev;
  nl.add_driver(drv);

  circuit::TransientOptions topts;
  topts.t_stop = 1e-9;
  topts.dt = 1e-12;
  const auto flat = circuit::transient(
      nl, {{circuit::ProbeKind::NodeVoltage, static_cast<std::size_t>(out), "o"}},
      topts);

  // Reduced model: exclude the driver, expose vdd-source + ports.
  const circuit::Mna mna(nl);
  const std::size_t n = mna.size();
  la::Matrix b(n, 1 + 1);  // vsource column + driver-out port
  b(mna.vsource_branch(0), 0) = 1.0;
  b(static_cast<std::size_t>(head), 1) = 1.0;
  // NOTE: the driver pull-up rail is the vsource node; expose it as a port
  // too so the co-sim can draw rail current through the macromodel.
  la::Matrix b2(n, 3);
  b2(mna.vsource_branch(0), 0) = 1.0;
  b2(static_cast<std::size_t>(head), 1) = 1.0;
  b2(static_cast<std::size_t>(vdd), 2) = 1.0;
  la::Matrix l(n, 1);
  l(static_cast<std::size_t>(out), 0) = 1.0;

  const test::MnaSystem sys = test::stamp_mna(nl);
  mor::PrimaOptions popts;
  popts.max_order = 16;
  const auto red = mor::prima_reduce(sys.g, sys.c, b2, l, popts);

  mor::CosimInputs inputs;
  inputs.source_waveforms = {Pwl::constant(1.8)};
  mor::CosimDriver cd;
  cd.out_port = 0;   // first port column (after the 1 source column)
  cd.vdd_port = 1;   // second port column
  cd.gnd_port = mor::kGroundPort;
  cd.dynamics = drv;
  inputs.drivers = {cd};

  mor::CosimOptions copts;
  copts.t_stop = topts.t_stop;
  copts.dt = topts.dt;
  const auto red_res = mor::simulate_reduced(red, inputs, copts);

  ASSERT_EQ(red_res.time.size(), flat.time.size());
  const auto d_flat = circuit::delay_50(flat.time, flat.samples[0], 0.0, 1.8);
  const auto d_red =
      circuit::delay_50(red_res.time, red_res.outputs[0], 0.0, 1.8);
  ASSERT_TRUE(d_flat.has_value());
  ASSERT_TRUE(d_red.has_value());
  EXPECT_NEAR(*d_red, *d_flat, 0.03 * *d_flat + 2e-12);
  // Endpoint levels agree.
  EXPECT_NEAR(red_res.outputs[0].back(), flat.samples[0].back(), 0.02);
}

TEST(Cosim, RejectsBadPortIndex) {
  mor::ReducedModel red;
  red.g = la::Matrix::identity(2);
  red.c = la::Matrix::identity(2);
  red.b = la::Matrix(2, 1);  // one port, no sources
  red.l = la::Matrix(2, 1);
  mor::CosimInputs inputs;
  mor::CosimDriver cd;
  cd.out_port = 5;  // out of range
  inputs.drivers = {cd};
  EXPECT_THROW(mor::simulate_reduced(red, inputs, {}), std::invalid_argument);
}

}  // namespace

// ---------------------------------------------------------------------------
// Hierarchical interconnect models (Section 4, [16]).
// ---------------------------------------------------------------------------

#include "la/cholesky.hpp"
#include "mor/hierarchical.hpp"
#include "matrix_checks.hpp"

namespace {

using namespace ind;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Pwl;

// Two RC chains joined by a single coupling resistor: a natural two-block
// hierarchy with the junction as the global node.
Netlist two_block_chain(NodeId& in, NodeId& out, int per_block = 15) {
  Netlist nl;
  in = nl.node("in");
  nl.add_vsource(in, kGround, Pwl({{0.0, 0.0}, {5e-12, 1.0}}));
  NodeId prev = in;
  for (int k = 0; k < 2 * per_block; ++k) {
    const NodeId next = nl.make_node();
    nl.add_resistor(prev, next, 25.0);
    nl.add_capacitor(next, kGround, 8e-15);
    prev = next;
  }
  out = prev;
  return nl;
}

TEST(Hierarchical, MatchesFullTransferFunction) {
  NodeId in, out;
  const Netlist nl = two_block_chain(in, out);
  const test::MnaSystem sys = test::stamp_mna(nl);
  const circuit::Mna mna(nl);
  la::Matrix b(sys.g.rows(), 1);
  b(mna.vsource_branch(0), 0) = 1.0;
  la::Matrix l(sys.g.rows(), 1);
  l(static_cast<std::size_t>(out), 0) = 1.0;

  // Blocks: first half vs second half of the node unknowns.
  std::vector<int> block_of(sys.g.rows(), -1);
  for (std::size_t i = 0; i < nl.num_nodes(); ++i)
    block_of[i] = i < nl.num_nodes() / 2 ? 0 : 1;

  mor::HierarchicalOptions opts;
  opts.order_per_block = 6;
  const auto hier = mor::hierarchical_reduce(sys.g, sys.c, b, l, block_of, opts);
  EXPECT_LT(hier.model.order(), sys.g.rows());
  EXPECT_GT(hier.global_unknowns, 0u);
  EXPECT_EQ(hier.block_orders.size(), 2u);

  for (double f : {1e8, 1e9, 5e9}) {
    const double w = 2 * M_PI * f;
    const auto h_full = transfer_function(sys.g_dense, sys.c_dense, b, l, w)(0, 0);
    const auto h_red = transfer_function(hier.model.g, hier.model.c,
                                              hier.model.b, hier.model.l,
                                              w)(0, 0);
    EXPECT_LT(std::abs(h_full - h_red), 0.03 * std::abs(h_full) + 1e-9)
        << "f=" << f;
  }
}

TEST(Hierarchical, PromotesCrossBlockCouplings) {
  // Chain a-m-c-d split into blocks {a,m} and {c,d}: the m-c resistor
  // couples two internals, so one of them must be promoted to global.
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId m = nl.node("m");
  const NodeId c = nl.node("c");
  const NodeId d = nl.node("d");
  nl.add_vsource(a, kGround, Pwl::constant(1.0));
  nl.add_resistor(a, m, 10.0);
  nl.add_resistor(m, c, 10.0);
  nl.add_resistor(c, d, 10.0);
  nl.add_capacitor(d, kGround, 1e-15);
  const test::MnaSystem sys = test::stamp_mna(nl);
  const circuit::Mna mna(nl);
  la::Matrix b(sys.g.rows(), 1);
  b(mna.vsource_branch(0), 0) = 1.0;
  la::Matrix l(sys.g.rows(), 1);
  l(static_cast<std::size_t>(d), 0) = 1.0;
  std::vector<int> block_of = {0, 0, 1, 1, -1};  // branch current kept global
  const auto hier = mor::hierarchical_reduce(sys.g, sys.c, b, l, block_of, {});
  // Globals: vsource branch (input row), d (output row), and one of {m, c}
  // from the cross-block promotion.
  EXPECT_GE(hier.global_unknowns, 3u);
  // Verify the reduction is numerically faithful at one frequency.
  const double w = 2 * M_PI * 1e9;
  const auto h_full = transfer_function(sys.g_dense, sys.c_dense, b, l, w)(0, 0);
  const auto h_red = transfer_function(hier.model.g, hier.model.c,
                                            hier.model.b, hier.model.l, w)(0, 0);
  EXPECT_LT(std::abs(h_full - h_red), 1e-6 * std::abs(h_full) + 1e-15);
}

TEST(Hierarchical, ReducedSystemKeepsPassivityStructure) {
  NodeId in, out;
  const Netlist nl = two_block_chain(in, out, 10);
  const test::MnaSystem sys = test::stamp_mna(nl);
  const circuit::Mna mna(nl);
  la::Matrix b(sys.g.rows(), 1);
  b(mna.vsource_branch(0), 0) = 1.0;
  la::Matrix l(sys.g.rows(), 1);
  l(static_cast<std::size_t>(out), 0) = 1.0;
  std::vector<int> block_of(sys.g.rows(), -1);
  for (std::size_t i = 0; i < nl.num_nodes(); ++i)
    block_of[i] = i < nl.num_nodes() / 2 ? 0 : 1;
  const auto hier = mor::hierarchical_reduce(sys.g, sys.c, b, l, block_of, {});
  // Congruence preserves symmetry of the C part (pure RC circuit) and
  // semidefiniteness: check C_red is symmetric PSD.
  const la::Matrix& cr = hier.model.c;
  EXPECT_TRUE(test::is_symmetric(cr, 1e-9));
  la::Matrix shifted = cr;
  for (std::size_t i = 0; i < shifted.rows(); ++i)
    shifted(i, i) += 1e-20;  // tolerate zero rows (global branch currents)
  EXPECT_TRUE(la::is_positive_definite(shifted));
}

}  // namespace

// ---------------------------------------------------------------------------
// Sparse PRIMA / hierarchical reduction against the dense oracle on the
// Table-1 clock-over-grid layout (bench_table1_clocknet), in its
// block-diagonal and its full-mutual form.
// ---------------------------------------------------------------------------

#include <algorithm>

#include "core/analyzer.hpp"
#include "elimination_oracle.hpp"
#include "geom/topologies.hpp"
#include "la/amd.hpp"
#include "peec/model_builder.hpp"
#include "sparsify/block_diagonal.hpp"
#include "sparsify/mutual_spec.hpp"

namespace {

using namespace ind;
using geom::um;

// Dense hierarchical oracle: global-unknown promotion by an n^2 scan, then
// basis splitting of the dense PRIMA oracle's basis.
mor::ReducedModel dense_hierarchical_reduce(const la::Matrix& g,
                                            const la::Matrix& c,
                                            const la::Matrix& b,
                                            const la::Matrix& l,
                                            std::vector<int> block_of,
                                            std::size_t order_per_block) {
  const std::size_t n = g.rows();
  for (std::size_t i = 0; i < n; ++i) {
    bool io = false;
    for (std::size_t j = 0; j < b.cols(); ++j) io |= b(i, j) != 0.0;
    for (std::size_t j = 0; j < l.cols(); ++j) io |= l(i, j) != 0.0;
    if (io) block_of[i] = -1;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (block_of[i] < 0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (block_of[j] < 0 || block_of[j] == block_of[i]) continue;
        if (g(i, j) == 0.0 && c(i, j) == 0.0 && g(j, i) == 0.0 &&
            c(j, i) == 0.0)
          continue;
        block_of[std::max(i, j)] = -1;
        changed = true;
        break;
      }
    }
  }
  std::vector<std::size_t> globals;
  int max_block = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (block_of[i] < 0)
      globals.push_back(i);
    else
      max_block = std::max(max_block, block_of[i]);
  }
  std::vector<std::vector<std::size_t>> blocks(
      static_cast<std::size_t>(max_block + 1));
  for (std::size_t i = 0; i < n; ++i)
    if (block_of[i] >= 0)
      blocks[static_cast<std::size_t>(block_of[i])].push_back(i);

  mor::PrimaOptions popts;
  popts.max_order =
      std::min(n, order_per_block * std::max<std::size_t>(1, blocks.size()));
  const mor::ReducedModel flat = dense_prima_reduce(g, c, b, l, popts);

  std::vector<std::pair<std::vector<std::size_t>, la::Matrix>> bases;
  std::size_t q = globals.size();
  for (const auto& rows : blocks) {
    if (rows.empty()) continue;
    la::Matrix restricted(rows.size(), flat.v.cols());
    for (std::size_t i = 0; i < rows.size(); ++i)
      for (std::size_t j = 0; j < flat.v.cols(); ++j)
        restricted(i, j) = flat.v(rows[i], j);
    const la::QrResult qr = la::orthonormalize(restricted, popts.deflation_tol);
    const std::size_t keep = std::min<std::size_t>(qr.rank, order_per_block);
    la::Matrix v_k(rows.size(), keep);
    for (std::size_t j = 0; j < keep; ++j)
      for (std::size_t i = 0; i < rows.size(); ++i) v_k(i, j) = qr.q(i, j);
    q += keep;
    bases.emplace_back(rows, std::move(v_k));
  }
  la::Matrix v(n, q);
  for (std::size_t k = 0; k < globals.size(); ++k) v(globals[k], k) = 1.0;
  std::size_t col = globals.size();
  for (const auto& [rows, v_k] : bases)
    for (std::size_t j = 0; j < v_k.cols(); ++j, ++col)
      for (std::size_t i = 0; i < rows.size(); ++i) v(rows[i], col) = v_k(i, j);
  mor::ReducedModel r;
  r.v = v;
  const la::Matrix vt = v.transposed();
  r.g = vt * (g * v);
  r.c = vt * (c * v);
  r.b = vt * b;
  r.l = vt * l;
  return r;
}

struct ClockCase {
  geom::Layout layout{geom::default_tech()};
  core::AnalysisOptions opts;
};

// bench_table1_clocknet's layout and analysis knobs.
ClockCase clock_over_grid(bool block_diagonal) {
  ClockCase cc;
  geom::PowerGridSpec grid;
  grid.extent_x = um(800);
  grid.extent_y = um(800);
  grid.pitch = um(160);
  grid.pads_per_side = 2;
  grid.horizontal_layer = 3;
  grid.vertical_layer = 4;
  geom::add_power_grid(cc.layout, grid);
  geom::ClockTreeSpec clock;
  clock.levels = 3;
  clock.center = {um(400), um(400)};
  clock.span = um(600);
  clock.driver_res = 5.0;
  clock.sink_cap_variation = 0.6;
  cc.opts.signal_net = geom::add_clock_htree(cc.layout, clock);
  cc.opts.peec.max_segment_length = um(160);
  cc.opts.peec.decap.sites = 24;
  cc.opts.peec.background.enable = true;
  cc.opts.peec.background.sources = 8;
  cc.opts.peec.mutual_window = um(200);
  cc.opts.transient.t_stop = 1.0e-9;
  cc.opts.transient.dt = 2e-12;
  cc.opts.params.prima_on_block_diagonal = block_diagonal;
  return cc;
}

// The reduction inputs core::analyze builds for its PRIMA and hierarchical
// flows, rebuilt here from public calls: sources then driver ports in B,
// sink probes in L, geometric strips as hierarchical blocks.
struct PrimaProblem {
  test::MnaSystem sys;
  la::Matrix b, l;
  mor::CosimInputs inputs;
  std::vector<int> block_of;
  double vdd = 0.0;
};

PrimaProblem prima_problem(const ClockCase& cc) {
  const core::FlowParams& fp = cc.opts.params;
  peec::PeecOptions popts = cc.opts.peec;
  popts.rc_only = false;
  popts.mutual_policy = fp.prima_on_block_diagonal
                            ? peec::PeecOptions::MutualPolicy::None
                            : peec::PeecOptions::MutualPolicy::Full;
  peec::PeecModel model = peec::build_peec_model(cc.layout, popts);
  if (fp.prima_on_block_diagonal)
    sparsify::apply_to_netlist(
        sparsify::block_diagonal(
            model.extraction.partial_l,
            sparsify::sections_by_strip(model.layout.segments(),
                                        fp.block_axis, fp.block_strip_width)),
        model.netlist, model.seg_inductor);
  const circuit::Netlist& nl = model.netlist;
  const circuit::Mna mna(nl);
  const std::size_t n = mna.size();

  PrimaProblem pp;
  pp.sys = test::stamp_mna(nl);
  pp.vdd = model.vdd_volts;
  std::vector<circuit::NodeId> ports;
  auto port_of = [&](circuit::NodeId node) -> std::size_t {
    if (node < 0) return mor::kGroundPort;
    const auto it = std::find(ports.begin(), ports.end(), node);
    if (it != ports.end()) return static_cast<std::size_t>(it - ports.begin());
    ports.push_back(node);
    return ports.size() - 1;
  };
  for (const circuit::SwitchedDriver& d : nl.drivers()) {
    mor::CosimDriver cd;
    cd.out_port = port_of(d.out);
    cd.vdd_port = port_of(d.vdd);
    cd.gnd_port = port_of(d.gnd);
    cd.dynamics = d;
    pp.inputs.drivers.push_back(cd);
  }
  const std::size_t n_src = nl.vsources().size() + nl.isources().size();
  pp.b = la::Matrix(n, n_src + ports.size());
  std::size_t col = 0;
  for (std::size_t k = 0; k < nl.vsources().size(); ++k, ++col) {
    pp.b(mna.vsource_branch(k), col) = 1.0;
    pp.inputs.source_waveforms.push_back(nl.vsources()[k].waveform);
  }
  for (const circuit::ISource& src : nl.isources()) {
    if (src.a >= 0) pp.b(static_cast<std::size_t>(src.a), col) = -1.0;
    if (src.b >= 0) pp.b(static_cast<std::size_t>(src.b), col) = 1.0;
    pp.inputs.source_waveforms.push_back(src.waveform);
    ++col;
  }
  for (circuit::NodeId node : ports)
    pp.b(static_cast<std::size_t>(node), col++) = 1.0;
  pp.l = la::Matrix(n, model.receiver_probes.size());
  for (std::size_t m = 0; m < model.receiver_probes.size(); ++m)
    pp.l(model.receiver_probes[m].index, m) = 1.0;

  pp.block_of.assign(n, -1);
  auto strip_of = [&](const geom::Point& p) {
    const double coord = fp.block_axis == geom::Axis::X ? p.x : p.y;
    return static_cast<int>(std::floor(coord / fp.hier_strip_width));
  };
  for (std::size_t node = 0; node < model.nodes.size(); ++node)
    pp.block_of[node] = strip_of(model.nodes[node].at);
  for (std::size_t seg = 0; seg < model.seg_inductor.size(); ++seg)
    if (model.seg_inductor[seg] != peec::kNoInductor)
      pp.block_of[mna.inductor_branch(model.seg_inductor[seg])] =
          strip_of(model.layout.segments()[seg].center());
  return pp;
}

double max_abs(const la::CMatrix& m) {
  double r = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) r = std::max(r, std::abs(m(i, j)));
  return r;
}

// Block moments L^T (A^-1 C)^k A^-1 B at s0, A = G + s0 C, k < count, from
// a dense LU (the series coefficients of H(s) about s0, up to sign).
std::vector<la::Matrix> block_moments(const la::Matrix& g, const la::Matrix& c,
                                      const la::Matrix& b, const la::Matrix& l,
                                      double s0, std::size_t count) {
  la::Matrix a = g;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) += s0 * c(i, j);
  const la::LU factor(a);
  const la::Matrix lt = l.transposed();
  std::vector<la::Matrix> moments;
  la::Matrix x = factor.solve(b);
  for (std::size_t k = 0; k < count; ++k) {
    moments.push_back(lt * x);
    x = factor.solve(c * x);
  }
  return moments;
}

class ClockOracle : public ::testing::TestWithParam<bool> {};

TEST_P(ClockOracle, SparsePrimaMatchesDenseOracleTransfer) {
  const ClockCase cc = clock_over_grid(GetParam());
  const PrimaProblem pp = prima_problem(cc);
  mor::PrimaOptions opts;
  opts.max_order = cc.opts.params.prima_order;
  const mor::ReducedModel sparse =
      mor::prima_reduce(pp.sys.g, pp.sys.c, pp.b, pp.l, opts);
  const mor::ReducedModel dense = dense_prima_reduce(
      pp.sys.g_dense, pp.sys.c_dense, pp.b, pp.l, opts);
  ASSERT_EQ(sparse.order(), dense.order());
  EXPECT_TRUE(sparse.report.ok());
  EXPECT_GT(sparse.report.condition_estimate, 0.0);
  for (double f : {1e8, 5e8, 1e9, 3e9, 1e10}) {
    const double w = 2 * M_PI * f;
    const la::CMatrix hs =
        transfer_function(sparse.g, sparse.c, sparse.b, sparse.l, w);
    const la::CMatrix hd =
        transfer_function(dense.g, dense.c, dense.b, dense.l, w);
    la::CMatrix diff = hs;
    for (std::size_t i = 0; i < diff.rows(); ++i)
      for (std::size_t j = 0; j < diff.cols(); ++j) diff(i, j) -= hd(i, j);
    EXPECT_LE(max_abs(diff), 1e-9 * max_abs(hd)) << "f=" << f;
  }
}

TEST_P(ClockOracle, ReducedModelMatchesLeadingBlockMoments) {
  const ClockCase cc = clock_over_grid(GetParam());
  const PrimaProblem pp = prima_problem(cc);
  mor::PrimaOptions opts;
  opts.max_order = 3 * pp.b.cols();  // room for three full Krylov blocks
  const mor::ReducedModel red =
      mor::prima_reduce(pp.sys.g, pp.sys.c, pp.b, pp.l, opts);
  const std::size_t matched = red.order() / pp.b.cols();
  ASSERT_GE(matched, 2u);
  const auto full = block_moments(pp.sys.g_dense, pp.sys.c_dense, pp.b, pp.l,
                                  opts.s0, matched);
  const auto reduced =
      block_moments(red.g, red.c, red.b, red.l, opts.s0, matched);
  for (std::size_t k = 0; k < matched; ++k) {
    double scale = 0.0, err = 0.0;
    for (std::size_t i = 0; i < full[k].rows(); ++i)
      for (std::size_t j = 0; j < full[k].cols(); ++j) {
        scale = std::max(scale, std::abs(full[k](i, j)));
        err = std::max(err, std::abs(full[k](i, j) - reduced[k](i, j)));
      }
    EXPECT_GT(scale, 0.0) << "moment " << k;
    EXPECT_LE(err, 1e-6 * scale) << "moment " << k;
  }
}

// Time domain. The reduced PRIMA and hierarchical models of this layout are
// not stable under co-simulation: their waveforms leave the supply rails
// within a few dozen steps and grow without bound, on the dense oracle's
// model exactly as on the sparse one, so rounding-level differences in the
// models are amplified without bound and a volt-level waveform tolerance
// is meaningless. What is checked instead: core::analyze co-simulates
// exactly the sparse reduction of the inputs rebuilt here (bitwise), and
// the delay and skew it reports match the dense oracle's to 1 fs.
TEST_P(ClockOracle, AnalyzeMatchesSparseReductionAndDenseOracleDelays) {
  const ClockCase cc = clock_over_grid(GetParam());
  const PrimaProblem pp = prima_problem(cc);
  mor::CosimOptions copts;
  copts.t_stop = cc.opts.transient.t_stop;
  copts.dt = cc.opts.transient.dt;

  for (const core::Flow flow :
       {core::Flow::PeecRlcPrima, core::Flow::PeecRlcHier}) {
    core::AnalysisOptions opts = cc.opts;
    opts.flow = flow;
    const core::AnalysisReport rep = core::analyze(cc.layout, opts);
    ASSERT_EQ(rep.flow, flow);

    mor::ReducedModel sparse, oracle;
    if (flow == core::Flow::PeecRlcHier) {
      mor::HierarchicalOptions hopts;
      hopts.order_per_block = opts.params.hier_order_per_block;
      sparse = mor::hierarchical_reduce(pp.sys.g, pp.sys.c, pp.b, pp.l,
                                        pp.block_of, hopts)
                   .model;
      oracle = dense_hierarchical_reduce(pp.sys.g_dense, pp.sys.c_dense, pp.b,
                                         pp.l, pp.block_of,
                                         hopts.order_per_block);
    } else {
      mor::PrimaOptions popts;
      popts.max_order = opts.params.prima_order;
      sparse = mor::prima_reduce(pp.sys.g, pp.sys.c, pp.b, pp.l, popts);
      oracle = dense_prima_reduce(pp.sys.g_dense, pp.sys.c_dense, pp.b, pp.l,
                                  popts);
    }
    EXPECT_EQ(rep.reduced_order, oracle.order()) << core::flow_name(flow);

    const mor::CosimResult mine =
        mor::simulate_reduced(sparse, pp.inputs, copts);
    ASSERT_EQ(mine.outputs.size(), rep.sink_waveforms.size());
    for (std::size_t m = 0; m < mine.outputs.size(); ++m)
      EXPECT_EQ(mine.outputs[m], rep.sink_waveforms[m])
          << core::flow_name(flow) << " sink " << m;

    const mor::CosimResult ref =
        mor::simulate_reduced(oracle, pp.inputs, copts);
    const circuit::SkewReport skew = circuit::measure_skew(
        ref.time, ref.outputs, rep.sink_names, 0.0, pp.vdd);
    EXPECT_NEAR(rep.worst_delay, skew.worst_delay, 1e-15)
        << core::flow_name(flow);
    EXPECT_NEAR(rep.skew, skew.skew, 1e-15) << core::flow_name(flow);
  }
}

// AMD on the full-RLC Table-1 companion G + C (871 unknowns, inductor
// branch rows coupled through the mutual window) fills within 10 % of exact
// minimum degree.
TEST(Amd, TableOneCompanionFillWithinTenPercentOfExactMinimumDegree) {
  const PrimaProblem pp = prima_problem(clock_over_grid(false));
  const la::CscMatrix a = la::add_scaled(pp.sys.g, 1.0, pp.sys.c);
  ASSERT_GT(a.rows(), 800u);
  const auto g = test::symmetric_graph(a);
  const std::size_t exact = test::elimination_fill(g);
  const std::size_t amd = test::elimination_fill(g, la::amd_order(a));
  EXPECT_LE(static_cast<double>(amd), 1.1 * static_cast<double>(exact));
}

INSTANTIATE_TEST_SUITE_P(BlockDiagonalAndFullMutual, ClockOracle,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("BlockDiagonal")
                                             : std::string("FullMutual");
                         });

}  // namespace
