// Unit tests for geometry: layers, segments, layout, topology generators.
#include <gtest/gtest.h>

#include <set>

#include "geom/layout.hpp"
#include "geom/topologies.hpp"

namespace {

using namespace ind::geom;

TEST(Technology, DefaultStackIsOrdered) {
  const Technology t = default_tech();
  ASSERT_EQ(t.num_layers(), 6u);
  for (std::size_t i = 1; i < t.layers.size(); ++i) {
    EXPECT_GT(t.layers[i].z_bottom, t.layers[i - 1].z_top());
    // Upper layers are thicker and lower resistance (global routing).
    EXPECT_LE(t.layers[i].sheet_resistance, t.layers[i - 1].sheet_resistance);
  }
  EXPECT_GT(t.layers[0].z_bottom, t.substrate_z);
  EXPECT_THROW(t.layer(0), std::out_of_range);
  EXPECT_THROW(t.layer(7), std::out_of_range);
}

TEST(Segment, BasicGeometry) {
  Segment s;
  s.a = {0, 0};
  s.b = {um(100), 0};
  s.width = um(2);
  EXPECT_DOUBLE_EQ(s.length(), um(100));
  EXPECT_EQ(s.axis(), Axis::X);
  EXPECT_DOUBLE_EQ(s.center().x, um(50));
  EXPECT_DOUBLE_EQ(s.lo(), 0.0);
  EXPECT_DOUBLE_EQ(s.hi(), um(100));
  EXPECT_DOUBLE_EQ(s.transverse(), 0.0);
}

TEST(Segment, ParallelGeometryOverlap) {
  Segment s, t;
  s.a = {0, 0};
  s.b = {um(100), 0};
  t.a = {um(50), um(3)};
  t.b = {um(150), um(3)};
  const auto g = parallel_geometry(s, t);
  ASSERT_TRUE(g.has_value());
  EXPECT_NEAR(g->overlap, um(50), 1e-15);
  EXPECT_NEAR(g->axial_gap, -um(50), 1e-15);
  EXPECT_NEAR(g->lateral, um(3), 1e-15);
}

TEST(Segment, ParallelGeometryDisjoint) {
  Segment s, t;
  s.a = {0, 0};
  s.b = {um(10), 0};
  t.a = {um(20), um(1)};
  t.b = {um(30), um(1)};
  const auto g = parallel_geometry(s, t);
  ASSERT_TRUE(g.has_value());
  EXPECT_NEAR(g->axial_gap, um(10), 1e-15);
  EXPECT_DOUBLE_EQ(g->overlap, 0.0);
}

TEST(Segment, OrthogonalPairsHaveNoParallelGeometry) {
  Segment s, t;
  s.a = {0, 0};
  s.b = {um(10), 0};
  t.a = {um(5), -um(5)};
  t.b = {um(5), um(5)};
  EXPECT_FALSE(parallel_geometry(s, t).has_value());
}

TEST(Segment, EdgeSpacing) {
  Segment s, t;
  s.a = {0, 0};
  s.b = {um(10), 0};
  s.width = um(2);
  t.a = {0, um(4)};
  t.b = {um(10), um(4)};
  t.width = um(2);
  EXPECT_NEAR(edge_spacing(s, t), um(2), 1e-15);
  EXPECT_TRUE(laterally_adjacent(s, t, um(3)));
  EXPECT_FALSE(laterally_adjacent(s, t, um(1)));
}

TEST(Layout, NetsAndWires) {
  Layout l(default_tech());
  const int sig = l.add_net("sig", NetKind::Signal);
  EXPECT_EQ(l.find_net("sig"), sig);
  EXPECT_EQ(l.find_net("nope"), -1);
  const std::size_t w = l.add_wire(sig, 6, {0, 0}, {um(100), 0}, um(2));
  EXPECT_EQ(l.segments()[w].layer, 6);
  EXPECT_DOUBLE_EQ(l.segments()[w].z, default_tech().layer(6).z_center());
  EXPECT_NEAR(l.total_wirelength(), um(100), 1e-15);
}

TEST(Layout, RejectsDiagonalWire) {
  Layout l(default_tech());
  const int sig = l.add_net("s", NetKind::Signal);
  EXPECT_THROW(l.add_wire(sig, 1, {0, 0}, {um(1), um(1)}, um(1)),
               std::invalid_argument);
}

TEST(Layout, RefineCutsAtConnectionPoints) {
  Layout l(default_tech());
  const int sig = l.add_net("s", NetKind::Signal);
  l.add_wire(sig, 6, {0, 0}, {um(100), 0}, um(1));
  Driver d;
  d.at = {um(40), 0};
  d.layer = 6;
  d.signal_net = sig;
  l.add_driver(d);
  const Layout fine = refine(l, um(1000));  // no length-based splitting
  ASSERT_EQ(fine.segments().size(), 2u);
  // One piece must end exactly at the driver point.
  bool found = false;
  for (const Segment& s : fine.segments())
    if (s.hi() == um(40) || s.lo() == um(40)) found = true;
  EXPECT_TRUE(found);
}

TEST(Layout, ParallelAndAdjacentPairs) {
  Layout l(default_tech());
  const int a = l.add_net("a", NetKind::Signal);
  const int b = l.add_net("b", NetKind::Signal);
  l.add_wire(a, 6, {0, 0}, {um(100), 0}, um(1));
  l.add_wire(b, 6, {0, um(2)}, {um(100), um(2)}, um(1));
  EXPECT_EQ(l.adjacent_pairs(um(2)).size(), 1u);
}

TEST(PowerGrid, GeneratesInterleavedStrapsAndPads) {
  Layout l(default_tech());
  PowerGridSpec spec;
  spec.extent_x = um(400);
  spec.extent_y = um(400);
  spec.pitch = um(100);
  const PowerGridNets nets = add_power_grid(l, spec);
  EXPECT_GE(nets.vdd, 0);
  EXPECT_GE(nets.gnd, 0);
  // Straps on both layers, both nets present.
  std::set<int> layers, net_ids;
  for (const Segment& s : l.segments()) {
    layers.insert(s.layer);
    net_ids.insert(s.net);
  }
  EXPECT_EQ(layers.size(), 2u);
  EXPECT_TRUE(net_ids.count(nets.vdd));
  EXPECT_TRUE(net_ids.count(nets.gnd));
  EXPECT_FALSE(l.vias().empty());
  EXPECT_FALSE(l.pads().empty());
  // Pads exist for both polarities.
  bool has_vdd_pad = false, has_gnd_pad = false;
  for (const Pad& p : l.pads()) {
    has_vdd_pad |= p.kind == NetKind::Power;
    has_gnd_pad |= p.kind == NetKind::Ground;
  }
  EXPECT_TRUE(has_vdd_pad);
  EXPECT_TRUE(has_gnd_pad);
}

TEST(PowerGrid, ViasOnlyAtSameNetCrossings) {
  Layout l(default_tech());
  PowerGridSpec spec;
  spec.extent_x = um(200);
  spec.extent_y = um(200);
  spec.pitch = um(100);
  add_power_grid(l, spec);
  for (const Via& v : l.vias()) {
    // The via's net must own metal at that location on both layers.
    int hits = 0;
    for (const Segment& s : l.segments()) {
      if (s.net != v.net) continue;
      const bool on_x = s.axis() == Axis::X && s.transverse() == v.at.y &&
                        v.at.x >= s.lo() && v.at.x <= s.hi();
      const bool on_y = s.axis() == Axis::Y && s.transverse() == v.at.x &&
                        v.at.y >= s.lo() && v.at.y <= s.hi();
      if (on_x || on_y) ++hits;
    }
    EXPECT_GE(hits, 2) << "via not on two same-net straps";
  }
}

TEST(ClockTree, HTreeHasExpectedSinks) {
  Layout l(default_tech());
  ClockTreeSpec spec;
  spec.levels = 2;
  const int net = add_clock_htree(l, spec);
  EXPECT_GE(net, 0);
  EXPECT_EQ(l.receivers().size(), 16u);  // 4^2
  EXPECT_EQ(l.drivers().size(), 1u);
  EXPECT_FALSE(l.vias().empty());
  // Tapering: no segment wider than the trunk.
  for (const Segment& s : l.segments()) EXPECT_LE(s.width, spec.trunk_width);
}

TEST(ClockTree, RejectsZeroLevels) {
  Layout l(default_tech());
  ClockTreeSpec spec;
  spec.levels = 0;
  EXPECT_THROW(add_clock_htree(l, spec), std::invalid_argument);
}

TEST(Bus, PlainBusTracksAndGates) {
  Layout l(default_tech());
  BusSpec spec;
  spec.bits = 4;
  const BusResult r = add_bus(l, spec);
  EXPECT_EQ(r.signal_nets.size(), 4u);
  EXPECT_EQ(l.segments().size(), 4u);
  EXPECT_EQ(l.drivers().size(), 4u);
  EXPECT_EQ(l.receivers().size(), 4u);
  EXPECT_EQ(r.shield_net, -1);
}

TEST(Bus, ShieldInsertionEveryOtherSignal) {
  Layout l(default_tech());
  BusSpec spec;
  spec.bits = 4;
  spec.shield_period = 1;  // G S G S G S G S G pattern
  const BusResult r = add_bus(l, spec);
  EXPECT_GE(r.shield_net, 0);
  std::size_t shields = 0;
  for (const Segment& s : l.segments())
    if (s.net == r.shield_net) ++shields;
  EXPECT_EQ(shields, 4u);  // 3 between + 1 trailing
  EXPECT_EQ(l.segments().size(), 8u);
}

TEST(GroundPlane, FillsRegion) {
  Layout l(default_tech());
  GroundPlaneSpec spec;
  spec.extent_across = um(20);
  spec.fill_pitch = um(4);
  const int net = add_ground_plane(l, spec);
  EXPECT_GE(net, 0);
  EXPECT_EQ(l.segments().size(), 6u);  // 20/4 + 1
  for (const Segment& s : l.segments()) EXPECT_EQ(s.kind, NetKind::Ground);
}

TEST(Interdigitated, SplitsBudgetAcrossFingers) {
  Layout l(default_tech());
  InterdigitatedSpec spec;
  spec.fingers = 4;
  spec.total_signal_width = um(8);
  const InterdigitatedResult r = add_interdigitated(l, spec);
  std::size_t fingers = 0, shields = 0;
  double signal_width = 0.0;
  for (const Segment& s : l.segments()) {
    if (s.net == r.signal_net && s.axis() == Axis::X) {
      ++fingers;
      signal_width += s.width;
    }
    if (s.net == r.ground_net) ++shields;
  }
  EXPECT_EQ(fingers, 4u);
  EXPECT_EQ(shields, 3u);
  EXPECT_NEAR(signal_width, um(8), 1e-12);  // metal budget preserved
  EXPECT_GT(r.metallization_width, um(8));  // but footprint grows
}

TEST(Interdigitated, SingleFingerIsPlainWire) {
  Layout l(default_tech());
  InterdigitatedSpec spec;
  spec.fingers = 1;
  const InterdigitatedResult r = add_interdigitated(l, spec);
  EXPECT_EQ(l.segments().size(), 1u);
  EXPECT_NEAR(r.metallization_width, spec.total_signal_width, 1e-15);
}

TEST(TwistedBundle, PermutesTracksAcrossRegions) {
  Layout l(default_tech());
  TwistedBundleSpec spec;
  spec.bits = 4;
  spec.regions = 4;
  spec.twisted = true;
  add_twisted_bundle(l, spec);
  // Each paired net must appear on both of its pair's track positions.
  for (int bit = 0; bit < spec.bits; ++bit) {
    const int net = l.find_net("tw" + std::to_string(bit));
    std::set<double> ys;
    for (const Segment& s : l.segments())
      if (s.net == net && s.axis() == Axis::X) ys.insert(s.transverse());
    EXPECT_EQ(ys.size(), 2u) << "bit " << bit;
  }
  EXPECT_FALSE(l.vias().empty());  // crossover jogs
}

TEST(TwistedBundle, UnpairedLastTrackStaysPut) {
  Layout l(default_tech());
  TwistedBundleSpec spec;
  spec.bits = 3;  // bit 2 has no partner
  spec.regions = 4;
  spec.twisted = true;
  add_twisted_bundle(l, spec);
  const int net = l.find_net("tw2");
  std::set<double> ys;
  for (const Segment& s : l.segments())
    if (s.net == net && s.axis() == Axis::X) ys.insert(s.transverse());
  EXPECT_EQ(ys.size(), 1u);
}

TEST(TwistedBundle, UntwistedIsStraight) {
  Layout l(default_tech());
  TwistedBundleSpec spec;
  spec.bits = 3;
  spec.regions = 3;
  spec.twisted = false;
  add_twisted_bundle(l, spec);
  EXPECT_TRUE(l.vias().empty());
  for (int bit = 0; bit < spec.bits; ++bit) {
    const int net = l.find_net("tw" + std::to_string(bit));
    std::set<double> ys;
    for (const Segment& s : l.segments())
      if (s.net == net) ys.insert(s.transverse());
    EXPECT_EQ(ys.size(), 1u);
  }
}

TEST(DriverReceiverGrid, Fig1Topology) {
  Layout l(default_tech());
  DriverReceiverGridSpec spec;
  spec.grid.extent_x = um(400);
  spec.grid.extent_y = um(400);
  spec.grid.pitch = um(100);
  const DriverReceiverGridResult r = add_driver_receiver_grid(l, spec);
  EXPECT_GE(r.signal_net, 0);
  EXPECT_EQ(l.drivers().size(), 1u);
  EXPECT_EQ(l.receivers().size(), 1u);
  // The signal wire must lie within the grid region.
  const auto [lo, hi] = l.bounding_box();
  EXPECT_GE(l.drivers()[0].at.x, lo.x);
  EXPECT_LE(l.receivers()[0].at.x, hi.x);
}

}  // namespace

// ---------------------------------------------------------------------------
// Layout validity: short detection, refinement invariants, shield grounding.
// ---------------------------------------------------------------------------

namespace {

TEST(LayoutShorts, ParallelOverlapDetected) {
  Layout l(default_tech());
  const int a = l.add_net("a", NetKind::Signal);
  const int b = l.add_net("b", NetKind::Signal);
  l.add_wire(a, 6, {0, 0}, {um(100), 0}, um(2));
  l.add_wire(b, 6, {um(50), um(1)}, {um(150), um(1)}, um(2));  // edges touch
  EXPECT_EQ(find_layout_shorts(l).size(), 1u);
}

TEST(LayoutShorts, OrthogonalCrossingDetected) {
  Layout l(default_tech());
  const int a = l.add_net("a", NetKind::Signal);
  const int b = l.add_net("b", NetKind::Signal);
  l.add_wire(a, 6, {0, 0}, {um(100), 0}, um(1));
  l.add_wire(b, 6, {um(50), -um(50)}, {um(50), um(50)}, um(1));
  EXPECT_EQ(find_layout_shorts(l).size(), 1u);
}

TEST(LayoutShorts, SameNetAndOtherLayersAreFine) {
  Layout l(default_tech());
  const int a = l.add_net("a", NetKind::Signal);
  const int b = l.add_net("b", NetKind::Signal);
  l.add_wire(a, 6, {0, 0}, {um(100), 0}, um(1));
  l.add_wire(a, 6, {um(50), -um(50)}, {um(50), um(50)}, um(1));  // same net
  l.add_wire(b, 5, {um(50), -um(50)}, {um(50), um(50)}, um(1));  // other layer
  l.add_wire(b, 6, {0, um(60)}, {um(100), um(60)}, um(1));  // clear of a's span
  EXPECT_TRUE(find_layout_shorts(l).empty());
}

TEST(LayoutShorts, GeneratedTopologiesAreShortFree) {
  // Every generator must produce legal layouts under default knobs.
  {
    Layout l(default_tech());
    add_power_grid(l, {});
    EXPECT_TRUE(find_layout_shorts(l).empty()) << "power grid";
  }
  {
    Layout l(default_tech());
    DriverReceiverGridSpec spec;
    add_driver_receiver_grid(l, spec);
    EXPECT_TRUE(find_layout_shorts(l).empty()) << "driver-receiver grid";
  }
  {
    Layout l(default_tech());
    TwistedBundleSpec spec;
    spec.bits = 4;
    spec.regions = 4;
    add_twisted_bundle(l, spec);
    EXPECT_TRUE(find_layout_shorts(l).empty()) << "twisted bundle";
  }
  {
    Layout l(default_tech());
    BusSpec spec;
    spec.bits = 6;
    spec.shield_period = 2;
    add_bus(l, spec);
    EXPECT_TRUE(find_layout_shorts(l).empty()) << "shielded bus";
  }
  {
    Layout l(default_tech());
    InterdigitatedSpec spec;
    spec.fingers = 4;
    add_interdigitated(l, spec);
    EXPECT_TRUE(find_layout_shorts(l).empty()) << "interdigitated";
  }
}

TEST(Refine, ConservesWirelength) {
  Layout l(default_tech());
  const int a = l.add_net("a", NetKind::Signal);
  l.add_wire(a, 6, {0, 0}, {um(777), 0}, um(1));
  l.add_wire(a, 5, {0, 0}, {0, um(333)}, um(1));
  l.add_via(a, {0, 0}, 5, 6);
  const Layout fine = refine(l, um(50));
  EXPECT_NEAR(fine.total_wirelength(), l.total_wirelength(), 1e-12);
  for (const Segment& s : fine.segments()) EXPECT_LE(s.length(), um(50) + 1e-12);
}

TEST(Refine, RejectsNonPositiveLength) {
  Layout l(default_tech());
  EXPECT_THROW(refine(l, 0.0), std::invalid_argument);
}

TEST(Bus, ShieldsCarryGroundPads) {
  Layout l(default_tech());
  BusSpec spec;
  spec.bits = 2;
  spec.shield_period = 1;
  add_bus(l, spec);
  std::size_t gnd_pads = 0;
  for (const Pad& p : l.pads())
    if (p.kind == NetKind::Ground) ++gnd_pads;
  EXPECT_GT(gnd_pads, 0u);  // shields are grounded, not floating
}

TEST(ClockTree, SinkCapVariationSpreadsLoads) {
  Layout l(default_tech());
  ClockTreeSpec spec;
  spec.levels = 2;
  spec.sink_cap = 50e-15;
  spec.sink_cap_variation = 0.5;
  add_clock_htree(l, spec);
  double lo = 1e9, hi = 0.0;
  for (const Receiver& r : l.receivers()) {
    lo = std::min(lo, r.load_cap);
    hi = std::max(hi, r.load_cap);
  }
  EXPECT_LT(lo, 40e-15);
  EXPECT_GT(hi, 60e-15);
  EXPECT_GE(lo, 25e-15);  // bounded by the variation fraction
  EXPECT_LE(hi, 75e-15);
}

}  // namespace

// ---------------------------------------------------------------------------
// Generator edge cases.
// ---------------------------------------------------------------------------

namespace {

TEST(Bus, VerticalAxisBus) {
  Layout l(default_tech());
  BusSpec spec;
  spec.bits = 2;
  spec.axis = Axis::Y;
  spec.layer = 5;
  const auto r = add_bus(l, spec);
  (void)r;
  for (const Segment& s : l.segments()) EXPECT_EQ(s.axis(), Axis::Y);
  EXPECT_EQ(l.drivers().size(), 2u);
}

TEST(Interdigitated, RejectsZeroFingers) {
  Layout l(default_tech());
  InterdigitatedSpec spec;
  spec.fingers = 0;
  EXPECT_THROW(add_interdigitated(l, spec), std::invalid_argument);
}

TEST(TwistedBundle, RejectsZeroRegions) {
  Layout l(default_tech());
  TwistedBundleSpec spec;
  spec.regions = 0;
  EXPECT_THROW(add_twisted_bundle(l, spec), std::invalid_argument);
}

TEST(TwistedBundle, GroundReturnIsPadded) {
  Layout l(default_tech());
  TwistedBundleSpec spec;
  spec.bits = 2;
  spec.regions = 2;
  const auto r = add_twisted_bundle(l, spec);
  EXPECT_GE(r.shield_net, 0);
  std::size_t gnd_pads = 0;
  for (const Pad& p : l.pads())
    if (p.kind == NetKind::Ground) ++gnd_pads;
  EXPECT_EQ(gnd_pads, 2u);
}

TEST(Layout, BoundingBoxAndEmpty) {
  Layout l(default_tech());
  EXPECT_EQ(l.bounding_box().first.x, 0.0);
  const int a = l.add_net("a", NetKind::Signal);
  l.add_wire(a, 6, {um(10), um(-5)}, {um(110), um(-5)}, um(2));
  const auto [lo, hi] = l.bounding_box();
  EXPECT_DOUBLE_EQ(lo.x, um(10));
  EXPECT_DOUBLE_EQ(hi.x, um(110));
  EXPECT_DOUBLE_EQ(lo.y, um(-5));
}

TEST(Layout, AddViaValidation) {
  Layout l(default_tech());
  EXPECT_THROW(l.add_via(0, {0, 0}, 6, 5), std::invalid_argument);
  EXPECT_THROW(l.add_wire(0, 6, {0, 0}, {um(1), 0}, 0.0),
               std::invalid_argument);
}

}  // namespace
