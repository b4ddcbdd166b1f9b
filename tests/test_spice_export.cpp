// Tests for the SPICE deck exporter.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "circuit/spice_export.hpp"

namespace {

using namespace ind::circuit;

std::string to_spice(const Netlist& nl, const SpiceExportOptions& opts = {}) {
  std::ostringstream os;
  write_spice(os, nl, opts);
  return os.str();
}

TEST(SpiceExport, BasicCards) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId b = nl.node("b");
  nl.add_resistor(a, b, 50.0);
  nl.add_capacitor(b, kGround, 1e-12);
  nl.add_inductor(a, kGround, 2e-9);
  nl.add_vsource(a, kGround, Pwl::constant(1.8));
  nl.add_isource(b, kGround, Pwl::ramp(0.0, 1e-9, 1e-3));
  const std::string deck = to_spice(nl);
  EXPECT_NE(deck.find("R0 n0 n1 50"), std::string::npos);
  EXPECT_NE(deck.find("C0 n1 0 1e-12"), std::string::npos);
  EXPECT_NE(deck.find("L0 n0 0 2e-09"), std::string::npos);
  EXPECT_NE(deck.find("V0 n0 0 DC 1.8"), std::string::npos);
  EXPECT_NE(deck.find("I0 n1 0 PWL(0 0 1e-09 0.001)"), std::string::npos);
  EXPECT_NE(deck.find(".end"), std::string::npos);
}

TEST(SpiceExport, MutualCouplingCoefficient) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const std::size_t l0 = nl.add_inductor(a, kGround, 1e-9);
  const std::size_t l1 = nl.add_inductor(a, kGround, 4e-9);
  nl.add_mutual(l0, l1, 1e-9);  // k = 1e-9 / sqrt(4e-18) = 0.5
  const std::string deck = to_spice(nl);
  EXPECT_NE(deck.find("K0 L0 L1 0.5"), std::string::npos);
}

TEST(SpiceExport, CoefficientClampedToPassiveRange) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const std::size_t l0 = nl.add_inductor(a, kGround, 1e-9);
  const std::size_t l1 = nl.add_inductor(a, kGround, 1e-9);
  nl.add_mutual(l0, l1, 1.1e-9);  // unphysical, must clamp
  const std::string deck = to_spice(nl);
  EXPECT_NE(deck.find("0.999999"), std::string::npos);
  EXPECT_EQ(deck.find("1.1"), std::string::npos);
}

TEST(SpiceExport, DriverBecomesBehaviouralSources) {
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId out = nl.node("out");
  nl.add_vsource(vdd, kGround, Pwl::constant(1.8));
  SwitchedDriver d;
  d.out = out;
  d.vdd = vdd;
  d.gnd = kGround;
  nl.add_driver(d);
  const std::string deck = to_spice(nl);
  EXPECT_NE(deck.find("BDRVU0"), std::string::npos);
  EXPECT_NE(deck.find("BDRVD0"), std::string::npos);
  EXPECT_NE(deck.find("Vctrlu0"), std::string::npos);
  EXPECT_NE(deck.find("Vctrld0"), std::string::npos);
}

TEST(SpiceExport, KGroupsRequireExpansion) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const std::size_t l0 = nl.add_inductor(a, kGround, 1e-9);
  const std::size_t l1 = nl.add_inductor(a, kGround, 1e-9);
  KMatrixGroup grp;
  grp.inductors = {l0, l1};
  // K = inverse of [[1n, 0.25n], [0.25n, 1n]]
  const double det = 1e-9 * 1e-9 - 0.25e-9 * 0.25e-9;
  grp.entries = {{0, 0, 1e-9 / det},
                 {0, 1, -0.25e-9 / det},
                 {1, 0, -0.25e-9 / det},
                 {1, 1, 1e-9 / det}};
  nl.add_kmatrix_group(std::move(grp));
  EXPECT_THROW(to_spice(nl), std::invalid_argument);

  SpiceExportOptions opts;
  opts.expand_kmatrix_groups = true;
  const std::string deck = to_spice(nl, opts);
  // Inverting K must recover L: self 1nH and k = 0.25.
  EXPECT_NE(deck.find("LK0"), std::string::npos);
  EXPECT_NE(deck.find("LK1"), std::string::npos);
  EXPECT_NE(deck.find("0.25"), std::string::npos);
}

TEST(SpiceExport, DeckIsTerminatedAndTitled) {
  Netlist nl;
  nl.add_resistor(nl.node("x"), kGround, 1.0);
  SpiceExportOptions opts;
  opts.title = "my deck";
  const std::string deck = to_spice(nl, opts);
  EXPECT_EQ(deck.rfind("* my deck", 0), 0u);  // starts with the title
  EXPECT_NE(deck.find(".end\n"), std::string::npos);
}

}  // namespace

// ---------------------------------------------------------------------------
// SPICE import + round-trip.
// ---------------------------------------------------------------------------

#include "circuit/transient.hpp"
#include "circuit/waveform.hpp"
#include "spice_import.hpp"

namespace {

using namespace ind::circuit;

TEST(SpiceImport, ValueSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_value("1k"), 1e3);
  EXPECT_DOUBLE_EQ(parse_spice_value("2.2u"), 2.2e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("10MEG"), 1e7);
  EXPECT_DOUBLE_EQ(parse_spice_value("5n"), 5e-9);
  EXPECT_DOUBLE_EQ(parse_spice_value("3p"), 3e-12);
  EXPECT_DOUBLE_EQ(parse_spice_value("7f"), 7e-15);
  EXPECT_DOUBLE_EQ(parse_spice_value("4m"), 4e-3);
  EXPECT_DOUBLE_EQ(parse_spice_value("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_spice_value("50ohm"), 50.0);  // unit tail
  EXPECT_THROW(parse_spice_value("abc"), std::invalid_argument);
}

TEST(SpiceImport, ParsesBasicDeck) {
  const std::string deck = R"(* test deck
R1 in out 1k
C1 out 0 1p
L1 out gnd 2n
V1 in 0 DC 1.8
I1 0 out PWL(0 0 1n 1m)
.end
)";
  const auto res = parse_spice(deck);
  EXPECT_EQ(res.parsed_cards, 5u);
  EXPECT_EQ(res.skipped_cards, 0u);
  ASSERT_EQ(res.netlist.resistors().size(), 1u);
  EXPECT_DOUBLE_EQ(res.netlist.resistors()[0].ohms, 1000.0);
  ASSERT_EQ(res.netlist.capacitors().size(), 1u);
  ASSERT_EQ(res.netlist.inductors().size(), 1u);
  EXPECT_EQ(res.netlist.inductors()[0].b, kGround);  // gnd aliases node 0
  ASSERT_EQ(res.netlist.vsources().size(), 1u);
  EXPECT_DOUBLE_EQ(res.netlist.vsources()[0].waveform(123.0), 1.8);
  ASSERT_EQ(res.netlist.isources().size(), 1u);
  EXPECT_DOUBLE_EQ(res.netlist.isources()[0].waveform(0.5e-9), 0.5e-3);
}

TEST(SpiceImport, KCardBecomesMutual) {
  const std::string deck = R"(L1 a 0 1n
L2 b 0 4n
K1 L1 L2 0.5
)";
  const auto res = parse_spice(deck);
  ASSERT_EQ(res.netlist.mutuals().size(), 1u);
  EXPECT_NEAR(res.netlist.mutuals()[0].henries, 1e-9, 1e-15);  // 0.5*sqrt(4e-18)
  EXPECT_THROW(parse_spice("K1 L1 L9 0.5\nL1 a 0 1n\n"),
               std::invalid_argument);
}

TEST(SpiceImport, ContinuationLinesAndSkips) {
  const std::string deck = R"(V1 in 0 PWL(0 0
+ 1n 1.0 2n 1.0)
Bmagic x y I=V(z)
R1 in 0 50
)";
  const auto res = parse_spice(deck);
  EXPECT_EQ(res.skipped_cards, 1u);  // the B source
  ASSERT_EQ(res.netlist.vsources().size(), 1u);
  EXPECT_DOUBLE_EQ(res.netlist.vsources()[0].waveform(1.5e-9), 1.0);
}

TEST(SpiceImport, MalformedCardThrows) {
  EXPECT_THROW(parse_spice("R1 a 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_spice("C1 a 0 banana\n"), std::invalid_argument);
}

// Full round-trip: export -> import -> identical transient behaviour.
TEST(SpiceRoundTrip, RlcTransientMatches) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId a = nl.node("a");
  const NodeId out = nl.node("out");
  nl.add_vsource(in, kGround, Pwl({{0.0, 0.0}, {1e-12, 1.0}}));
  const std::size_t l0 = nl.add_inductor(in, a, 1e-9);
  const std::size_t l1 = nl.add_inductor(a, out, 0.5e-9);
  nl.add_mutual(l0, l1, 0.3e-9);
  nl.add_resistor(a, out, 10.0);
  nl.add_capacitor(out, kGround, 1e-12);

  const auto rt = parse_spice(to_spice(nl));
  EXPECT_EQ(rt.netlist.counts().resistors, nl.counts().resistors);
  EXPECT_EQ(rt.netlist.counts().inductors, nl.counts().inductors);
  EXPECT_EQ(rt.netlist.counts().mutuals, nl.counts().mutuals);

  TransientOptions opts;
  opts.t_stop = 1e-9;
  opts.dt = 1e-12;
  const Probe p{ProbeKind::NodeVoltage, static_cast<std::size_t>(out), "o"};
  // Imported node ids differ; find the matching node by name.
  const NodeId out_rt = rt.netlist.find_node("n" + std::to_string(out));
  ASSERT_GE(out_rt, 0);
  const Probe p_rt{ProbeKind::NodeVoltage, static_cast<std::size_t>(out_rt),
                   "o"};
  const auto ref = transient(nl, {p}, opts);
  const auto got = transient(rt.netlist, {p_rt}, opts);
  for (std::size_t k = 0; k < ref.samples[0].size(); k += 50)
    EXPECT_NEAR(got.samples[0][k], ref.samples[0][k], 1e-6);
}

}  // namespace
