// Unit + integration tests for the PEEC model builder (Section 3).
#include <gtest/gtest.h>

#include "circuit/transient.hpp"
#include "circuit/waveform.hpp"
#include "geom/topologies.hpp"
#include "peec/model_builder.hpp"

namespace {

using namespace ind;
using geom::um;

geom::Layout small_fig1_layout() {
  geom::Layout l(geom::default_tech());
  geom::DriverReceiverGridSpec spec;
  spec.grid.extent_x = um(300);
  spec.grid.extent_y = um(300);
  spec.grid.pitch = um(150);
  spec.grid.pads_per_side = 1;
  spec.signal_length = um(250);
  add_driver_receiver_grid(l, spec);
  return l;
}

TEST(Decap, StatisticalEstimate) {
  // 1 m of total transistor width, 15% switching: C = 1.5 fF/um * 1e6 um * 0.85
  const double c = peec::estimate_block_decap(1.0, 0.15);
  EXPECT_NEAR(c, 1.5e-15 * 1e6 * 0.85, 1e-12);
  EXPECT_THROW(peec::estimate_block_decap(1.0, 1.5), std::invalid_argument);
  EXPECT_THROW(peec::estimate_block_decap(-1.0, 0.5), std::invalid_argument);
}

TEST(Package, PadImpedanceScaling) {
  geom::Pad pad;
  pad.resistance = 0.1;
  pad.inductance = 1e-9;
  peec::PackageOptions opts;
  opts.resistance_scale = 2.0;
  opts.inductance_scale = 0.5;
  const peec::PadImpedance z = peec::pad_impedance(pad, opts);
  EXPECT_DOUBLE_EQ(z.resistance, 0.2);
  EXPECT_DOUBLE_EQ(z.inductance, 0.5e-9);
}

TEST(PeecBuilder, RlcModelStructure) {
  const geom::Layout l = small_fig1_layout();
  peec::PeecOptions opts;
  opts.max_segment_length = um(100);
  opts.decap.sites = 8;
  const peec::PeecModel m = peec::build_peec_model(l, opts);

  const std::size_t n_seg = m.layout.segments().size();
  EXPECT_GT(n_seg, 0u);
  // Every segment got an inductor and nodes.
  for (std::size_t i = 0; i < n_seg; ++i) {
    EXPECT_NE(m.seg_inductor[i], peec::kNoInductor);
    EXPECT_GE(m.seg_a[i], 0);
    EXPECT_GE(m.seg_b[i], 0);
  }
  const auto c = m.counts();
  EXPECT_GE(c.inductors, n_seg);  // + pad inductors
  EXPECT_GT(c.mutuals, 0u);
  EXPECT_GT(c.capacitors, 0u);
  // Drivers, receivers, probes present.
  EXPECT_EQ(m.netlist.drivers().size(), 1u);
  EXPECT_EQ(m.receiver_probes.size(), 1u);
}

TEST(PeecBuilder, RcModelHasNoInductance) {
  const geom::Layout l = small_fig1_layout();
  peec::PeecOptions opts;
  opts.rc_only = true;
  opts.max_segment_length = um(100);
  const peec::PeecModel m = peec::build_peec_model(l, opts);
  EXPECT_EQ(m.counts().inductors, 0u);
  EXPECT_EQ(m.counts().mutuals, 0u);
  for (const std::size_t k : m.seg_inductor) EXPECT_EQ(k, peec::kNoInductor);
}

TEST(PeecBuilder, MutualPolicyNoneDefersCoupling) {
  const geom::Layout l = small_fig1_layout();
  peec::PeecOptions opts;
  opts.mutual_policy = peec::PeecOptions::MutualPolicy::None;
  opts.max_segment_length = um(100);
  const peec::PeecModel m = peec::build_peec_model(l, opts);
  EXPECT_EQ(m.counts().mutuals, 0u);
  EXPECT_GT(m.counts().inductors, 0u);
  EXPECT_FALSE(m.extraction.partial_l.empty());  // matrix kept for later
}

TEST(PeecBuilder, NodesShareAtViaPoints) {
  geom::Layout l(geom::default_tech());
  const int net = l.add_net("n", geom::NetKind::Signal);
  l.add_wire(net, 5, {0, 0}, {um(100), 0}, um(1));
  l.add_wire(net, 6, {um(50), -um(50)}, {um(50), um(50)}, um(1));
  l.add_via(net, {um(50), 0}, 5, 6);
  peec::PeecOptions opts;
  opts.max_segment_length = um(1000);
  const peec::PeecModel m = peec::build_peec_model(l, opts);
  // The via resistor must appear: count resistors > segments (wire R + via R).
  EXPECT_EQ(m.counts().resistors, m.layout.segments().size() + 1);
}

TEST(PeecBuilder, DecapSitesAttach) {
  const geom::Layout l = small_fig1_layout();
  peec::PeecOptions with, without;
  with.max_segment_length = without.max_segment_length = um(150);
  with.decap.enable = true;
  with.decap.sites = 8;
  without.decap.enable = false;
  const auto m1 = peec::build_peec_model(l, with);
  const auto m0 = peec::build_peec_model(l, without);
  EXPECT_GT(m1.counts().capacitors, m0.counts().capacitors);
  EXPECT_GT(m1.counts().resistors, m0.counts().resistors);
}

TEST(PeecBuilder, BackgroundSourcesAttach) {
  const geom::Layout l = small_fig1_layout();
  peec::PeecOptions opts;
  opts.max_segment_length = um(150);
  opts.background.enable = true;
  opts.background.sources = 5;
  const auto m = peec::build_peec_model(l, opts);
  EXPECT_EQ(m.netlist.isources().size(), 5u);
}

TEST(PeecBuilder, NearestNodeFindsKinds) {
  const geom::Layout l = small_fig1_layout();
  peec::PeecOptions opts;
  opts.max_segment_length = um(150);
  const auto m = peec::build_peec_model(l, opts);
  const auto p = m.nearest_node({um(150), um(150)}, geom::NetKind::Power);
  const auto g = m.nearest_node({um(150), um(150)}, geom::NetKind::Ground);
  ASSERT_GE(p, 0);
  ASSERT_GE(g, 0);
  EXPECT_EQ(m.nodes[static_cast<std::size_t>(p)].kind, geom::NetKind::Power);
  EXPECT_EQ(m.nodes[static_cast<std::size_t>(g)].kind, geom::NetKind::Ground);
}

// End-to-end: the Fig-1 circuit must actually switch rail-to-rail.
TEST(PeecIntegration, Fig1TransientSwitches) {
  const geom::Layout l = small_fig1_layout();
  peec::PeecOptions opts;
  opts.max_segment_length = um(150);
  opts.decap.sites = 4;
  const peec::PeecModel m = peec::build_peec_model(l, opts);

  circuit::TransientOptions topts;
  topts.t_stop = 1.5e-9;
  topts.dt = 2e-12;
  const auto res = circuit::transient(m.netlist, m.receiver_probes, topts);
  const auto& w = res.samples[0];
  EXPECT_NEAR(w.front(), 0.0, 0.05);
  EXPECT_NEAR(w.back(), opts.vdd, 0.05);
  const auto d = circuit::delay_50(res.time, w, 0.0, opts.vdd);
  ASSERT_TRUE(d.has_value());
  EXPECT_GT(*d, 0.0);
  EXPECT_LT(*d, 1e-9);
}

// The RLC model must be slower (or at least different) than RC and show
// inductive ringing on an aggressive topology — Section 6's core claim.
TEST(PeecIntegration, RlcDelayDiffersFromRc) {
  const geom::Layout l = small_fig1_layout();
  peec::PeecOptions rlc, rc;
  rlc.max_segment_length = rc.max_segment_length = um(150);
  rc.rc_only = true;
  const auto m_rlc = peec::build_peec_model(l, rlc);
  const auto m_rc = peec::build_peec_model(l, rc);

  circuit::TransientOptions topts;
  topts.t_stop = 1.5e-9;
  topts.dt = 2e-12;
  const auto r_rlc = circuit::transient(m_rlc.netlist, m_rlc.receiver_probes, topts);
  const auto r_rc = circuit::transient(m_rc.netlist, m_rc.receiver_probes, topts);
  const auto d_rlc =
      circuit::delay_50(r_rlc.time, r_rlc.samples[0], 0.0, 1.8);
  const auto d_rc = circuit::delay_50(r_rc.time, r_rc.samples[0], 0.0, 1.8);
  ASSERT_TRUE(d_rlc.has_value());
  ASSERT_TRUE(d_rc.has_value());
  EXPECT_NE(*d_rlc, *d_rc);
}

TEST(PeecBuilder, ThrowsOnDriverOffWire) {
  geom::Layout l(geom::default_tech());
  const int net = l.add_net("n", geom::NetKind::Signal);
  l.add_wire(net, 6, {0, 0}, {um(100), 0}, um(1));
  geom::Driver d;
  d.at = {um(500), um(500)};  // nowhere near the wire
  d.layer = 6;
  d.signal_net = net;
  l.add_driver(d);
  EXPECT_THROW(peec::build_peec_model(l, {}), std::runtime_error);
}

}  // namespace

// ---------------------------------------------------------------------------
// Substrate model extension (Section 3: "can also easily be extended to
// include substrate models, N-well capacitance").
// ---------------------------------------------------------------------------

namespace {

using namespace ind;
using geom::um;

geom::Layout substrate_workload() {
  geom::Layout l(geom::default_tech());
  geom::DriverReceiverGridSpec spec;
  spec.grid.extent_x = um(300);
  spec.grid.extent_y = um(300);
  spec.grid.pitch = um(150);
  spec.grid.pads_per_side = 1;
  spec.signal_length = um(250);
  geom::add_driver_receiver_grid(l, spec);
  return l;
}

TEST(Substrate, MeshAddsNodesAndElements) {
  const geom::Layout l = substrate_workload();
  peec::PeecOptions with, without;
  with.max_segment_length = without.max_segment_length = um(150);
  with.substrate.enable = true;
  with.substrate.pitch = um(100);
  const auto m1 = peec::build_peec_model(l, with);
  const auto m0 = peec::build_peec_model(l, without);
  EXPECT_FALSE(m1.substrate_nodes.empty());
  EXPECT_TRUE(m0.substrate_nodes.empty());
  EXPECT_GT(m1.counts().resistors, m0.counts().resistors);  // mesh + taps
  for (const circuit::NodeId n : m1.substrate_nodes)
    EXPECT_EQ(m1.nodes[static_cast<std::size_t>(n)].kind,
              geom::NetKind::Substrate);
}

TEST(Substrate, GroundCapsTerminateOnBulk) {
  const geom::Layout l = substrate_workload();
  peec::PeecOptions opts;
  opts.max_segment_length = um(150);
  opts.substrate.enable = true;
  const auto m = peec::build_peec_model(l, opts);
  // No interconnect ground capacitance may reference the ideal ground node
  // directly: every grounded cap lands on a substrate node.
  std::size_t to_ideal = 0, to_substrate = 0;
  std::vector<bool> is_sub(m.nodes.size(), false);
  for (const circuit::NodeId n : m.substrate_nodes)
    is_sub[static_cast<std::size_t>(n)] = true;
  for (const circuit::Capacitor& c : m.netlist.capacitors()) {
    if (c.b == circuit::kGround && c.a >= 0 &&
        m.nodes[static_cast<std::size_t>(c.a)].kind != geom::NetKind::Substrate)
      ++to_ideal;
    if (c.b >= 0 && is_sub[static_cast<std::size_t>(c.b)]) ++to_substrate;
  }
  EXPECT_GT(to_substrate, 0u);
}

TEST(Substrate, TransientStillSwitchesCleanly) {
  const geom::Layout l = substrate_workload();
  peec::PeecOptions opts;
  opts.max_segment_length = um(150);
  opts.substrate.enable = true;
  opts.decap.sites = 4;
  const auto m = peec::build_peec_model(l, opts);
  circuit::TransientOptions topts;
  topts.t_stop = 1.5e-9;
  topts.dt = 2e-12;
  const auto res = circuit::transient(m.netlist, m.receiver_probes, topts);
  EXPECT_NEAR(res.samples[0].back(), opts.vdd, 0.05);
}

TEST(Substrate, BulkBouncesDuringSwitching) {
  const geom::Layout l = substrate_workload();
  peec::PeecOptions opts;
  opts.max_segment_length = um(150);
  opts.substrate.enable = true;
  const auto m = peec::build_peec_model(l, opts);
  // Probe a central substrate node: switching must inject visible bulk
  // noise through the interconnect and N-well capacitances.
  const circuit::NodeId sub =
      m.substrate_nodes[m.substrate_nodes.size() / 2];
  circuit::TransientOptions topts;
  topts.t_stop = 1.0e-9;
  topts.dt = 2e-12;
  const auto res = circuit::transient(
      m.netlist,
      {{circuit::ProbeKind::NodeVoltage, static_cast<std::size_t>(sub),
        "bulk"}},
      topts);
  double peak = 0.0;
  for (double v : res.samples[0]) peak = std::max(peak, std::abs(v));
  EXPECT_GT(peak, 1e-4);  // bounces...
  EXPECT_LT(peak, 1.0);   // ...but stays far below the rail
}

}  // namespace

// ---------------------------------------------------------------------------
// Supply droop (the [12] substrate), read from a near-DC AC solve.
// ---------------------------------------------------------------------------

#include "circuit/ac.hpp"

namespace {

TEST(IrDrop, MorePadsReduceDroop) {
  // Droop per amp of load: draw a unit current from the power node nearest
  // the grid centre into its nearest ground node and solve at 1 kHz. There
  // the pads' supply sources are AC ground, inductors short and capacitors
  // open, so node voltages are the grid's resistive IR drop.
  struct Droop {
    double vdd;  // volts below nominal at the load's power node
    double gnd;  // volts above 0 at the load's ground node
  };
  auto droop_per_amp = [&](int pads_per_side) {
    geom::Layout l(geom::default_tech());
    geom::DriverReceiverGridSpec spec;
    spec.grid.extent_x = um(400);
    spec.grid.extent_y = um(400);
    spec.grid.pitch = um(100);
    spec.grid.pads_per_side = pads_per_side;
    spec.signal_length = um(300);
    geom::add_driver_receiver_grid(l, spec);
    peec::PeecOptions opts;
    opts.rc_only = true;
    opts.max_segment_length = um(100);
    peec::PeecModel m = peec::build_peec_model(l, opts);
    const circuit::NodeId p =
        m.nearest_node({um(200), um(200)}, geom::NetKind::Power);
    const circuit::NodeId g = m.nearest_node(
        m.nodes[static_cast<std::size_t>(p)].at, geom::NetKind::Ground);
    EXPECT_GE(p, 0);
    EXPECT_GE(g, 0);
    const std::size_t load =
        m.netlist.add_isource(p, g, circuit::Pwl::constant(0.0));
    const circuit::AcResult res = circuit::ac_sweep(
        m.netlist, {circuit::AcExcitation::Kind::ISource, load},
        {2.0 * M_PI * 1e3})[0];
    EXPECT_TRUE(res.report.usable());
    return Droop{-res.node_voltage(p).real(), res.node_voltage(g).real()};
  };
  // Same grid and load; a strictly stronger supply must droop less.
  const Droop weak = droop_per_amp(1);
  const Droop strong = droop_per_amp(4);
  EXPECT_GT(strong.vdd, 0.0);
  EXPECT_GT(strong.gnd, 0.0);
  EXPECT_LT(strong.vdd, weak.vdd);
  EXPECT_LT(strong.gnd, weak.gnd);
}

}  // namespace
