// Unit tests for PRIMA and reduced-model co-simulation.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/mna.hpp"
#include "circuit/transient.hpp"
#include "circuit/waveform.hpp"
#include "la/lu.hpp"
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

TEST(Prima, ReducedTransferMatchesFullAtLowFrequency) {
  NodeId in, out;
  const Netlist nl = rc_ladder(in, out);
  const circuit::DenseSystem sys = circuit::build_dense_system(nl, {});
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
    const auto h_full = transfer_function(sys.g, sys.c, b, l, w);
    const auto h_red = transfer_function(red.g, red.c, red.b, red.l, w);
    const double err = std::abs(h_full(0, 0) - h_red(0, 0));
    EXPECT_LT(err, 0.02 * std::abs(h_full(0, 0)) + 1e-9)
        << "mismatch at f=" << f;
  }
}

TEST(Prima, HigherOrderIsMoreAccurate) {
  NodeId in, out;
  const Netlist nl = rc_ladder(in, out);
  const circuit::DenseSystem sys = circuit::build_dense_system(nl, {});
  la::Matrix b(sys.g.rows(), 1);
  const circuit::Mna mna(nl);
  b(mna.vsource_branch(0), 0) = 1.0;
  la::Matrix l(sys.g.rows(), 1);
  l(static_cast<std::size_t>(out), 0) = 1.0;

  const double w = 2 * M_PI * 5e9;  // away from the expansion point
  const auto h_full = transfer_function(sys.g, sys.c, b, l, w)(0, 0);
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
  const circuit::DenseSystem sys = circuit::build_dense_system(nl, {});
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
  la::Matrix g(3, 3), c(3, 3), b(2, 1), l(3, 1);
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

  const circuit::DenseSystem sys =
      circuit::build_dense_system(nl, {}, /*driver_time=*/-1.0);
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
  const circuit::DenseSystem sys = circuit::build_dense_system(nl, {});
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
    const auto h_full = transfer_function(sys.g, sys.c, b, l, w)(0, 0);
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
  const circuit::DenseSystem sys = circuit::build_dense_system(nl, {});
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
  const auto h_full = transfer_function(sys.g, sys.c, b, l, w)(0, 0);
  const auto h_red = transfer_function(hier.model.g, hier.model.c,
                                            hier.model.b, hier.model.l, w)(0, 0);
  EXPECT_LT(std::abs(h_full - h_red), 1e-6 * std::abs(h_full) + 1e-15);
}

TEST(Hierarchical, ReducedSystemKeepsPassivityStructure) {
  NodeId in, out;
  const Netlist nl = two_block_chain(in, out, 10);
  const circuit::DenseSystem sys = circuit::build_dense_system(nl, {});
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
