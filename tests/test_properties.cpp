// Property-based (parameterised) tests: invariants that must hold across
// whole parameter families, not just hand-picked cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>

#include "circuit/transient.hpp"
#include "extract/capacitance.hpp"
#include "extract/partial_inductance.hpp"
#include "extract/skin.hpp"
#include "geom/topologies.hpp"
#include "la/cholesky.hpp"
#include "loop/port_extractor.hpp"
#include "sparsify/block_diagonal.hpp"
#include "sparsify/kmatrix.hpp"
#include "sparsify/shell.hpp"
#include "sparsify/stability.hpp"
#include "matrix_checks.hpp"

namespace {

using namespace ind;
using geom::um;

// ---------------------------------------------------------------------------
// Invariant: the full partial-inductance matrix of ANY parallel-wire family
// is symmetric positive definite (passivity of the PEEC model).
// ---------------------------------------------------------------------------

// gtest names each case by the parameter's raw bytes, so the struct must have
// no padding: a 64-bit `wires` keeps those bytes, and the test names, fixed.
struct BusParams {
  std::int64_t wires;
  double pitch_um;
  double length_um;
  double width_um;
};

class PartialMatrixPsd : public ::testing::TestWithParam<BusParams> {};

TEST_P(PartialMatrixPsd, FullMatrixIsSpd) {
  const BusParams p = GetParam();
  std::vector<geom::Segment> segs;
  for (std::int64_t i = 0; i < p.wires; ++i) {
    geom::Segment s;
    s.a = {0, i * um(p.pitch_um)};
    s.b = {um(p.length_um), i * um(p.pitch_um)};
    s.width = um(p.width_um);
    s.thickness = um(1);
    segs.push_back(s);
  }
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  EXPECT_TRUE(test::is_symmetric(l));
  EXPECT_TRUE(la::is_positive_definite(l));
  // Passivity pairwise bound: |M| < sqrt(Li Lj).
  for (std::size_t i = 0; i < l.rows(); ++i)
    for (std::size_t j = i + 1; j < l.cols(); ++j)
      EXPECT_LT(std::abs(l(i, j)), std::sqrt(l(i, i) * l(j, j)));
}

INSTANTIATE_TEST_SUITE_P(
    BusSweep, PartialMatrixPsd,
    ::testing::Values(BusParams{2, 2.2, 200, 1}, BusParams{4, 2.2, 500, 1},
                      BusParams{8, 3, 1000, 1}, BusParams{6, 10, 1000, 2},
                      BusParams{12, 2.5, 800, 1}, BusParams{3, 50, 2000, 4}));

// ---------------------------------------------------------------------------
// Invariant: guaranteed-stable sparsifiers stay PSD for every section /
// radius choice (the paper's block-diagonal and shell guarantees).
// ---------------------------------------------------------------------------

class StableSparsifiers : public ::testing::TestWithParam<double> {};

TEST_P(StableSparsifiers, BlockDiagonalAlwaysPsd) {
  const double strip_um = GetParam();
  std::vector<geom::Segment> segs;
  for (int i = 0; i < 10; ++i) {
    geom::Segment s;
    s.a = {0, i * um(2.5)};
    s.b = {um(800), i * um(2.5)};
    s.width = um(1);
    s.thickness = um(1);
    segs.push_back(s);
  }
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  const auto bd = sparsify::block_diagonal(
      l, sparsify::sections_by_strip(segs, geom::Axis::Y, um(strip_um)));
  EXPECT_TRUE(sparsify::analyze_stability(bd).positive_definite)
      << "strip width " << strip_um << "um";
}

TEST_P(StableSparsifiers, ShellAlwaysPsd) {
  const double radius_um = GetParam();
  std::vector<geom::Segment> segs;
  for (int i = 0; i < 10; ++i) {
    geom::Segment s;
    s.a = {0, i * um(2.5)};
    s.b = {um(800), i * um(2.5)};
    s.width = um(1);
    s.thickness = um(1);
    segs.push_back(s);
  }
  const auto sh = sparsify::shell(segs, um(radius_um));
  EXPECT_TRUE(sparsify::analyze_stability(sh).positive_definite)
      << "radius " << radius_um << "um";
}

TEST_P(StableSparsifiers, KMatrixAlwaysPsdAfterTruncation) {
  const double scale = GetParam();
  std::vector<geom::Segment> segs;
  for (int i = 0; i < 10; ++i) {
    geom::Segment s;
    s.a = {0, i * um(2.5)};
    s.b = {um(800), i * um(2.5)};
    s.width = um(1);
    s.thickness = um(1);
    segs.push_back(s);
  }
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  // Map strip widths to plausible K thresholds in (0, 0.2).
  const double ratio = std::min(0.19, scale / 200.0);
  const auto k = sparsify::kmatrix_sparsify(l, ratio);
  EXPECT_TRUE(sparsify::analyze_stability(k).positive_definite)
      << "ratio " << ratio;
}

INSTANTIATE_TEST_SUITE_P(ParamSweep, StableSparsifiers,
                         ::testing::Values(3.0, 6.0, 12.0, 25.0, 100.0));

// ---------------------------------------------------------------------------
// Invariant: skin splitting conserves cross-section exactly.
// ---------------------------------------------------------------------------

class SkinConservation
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SkinConservation, AreaAndDcConductanceConserved) {
  const auto [w_um, t_um] = GetParam();
  geom::Segment s;
  s.a = {0, 0};
  s.b = {um(300), 0};
  s.width = um(w_um);
  s.thickness = um(t_um);
  const auto fils = extract::split_for_skin(s);
  double area = 0.0, conductance = 0.0;
  for (const auto& f : fils) {
    area += f.width * f.thickness;
    conductance += f.width * f.thickness / f.length();  // ~ 1/R per filament
    EXPECT_DOUBLE_EQ(f.length(), s.length());
  }
  EXPECT_NEAR(area, s.width * s.thickness, 1e-18);
  EXPECT_NEAR(conductance, s.width * s.thickness / s.length(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    CrossSections, SkinConservation,
    ::testing::Values(std::tuple{1.0, 0.5}, std::tuple{4.0, 1.0},
                      std::tuple{10.0, 1.0}, std::tuple{8.0, 4.0},
                      std::tuple{30.0, 2.0}));

// ---------------------------------------------------------------------------
// Invariant: capacitance model monotonicity across geometry sweeps.
// ---------------------------------------------------------------------------

class CapMonotonic : public ::testing::TestWithParam<double> {};

TEST_P(CapMonotonic, GroundCapGrowsWithWidthShrinksWithHeight) {
  const double w = um(GetParam());
  const double c_low = extract::ground_cap_per_length(w, um(1), um(1), 3.9);
  const double c_high = extract::ground_cap_per_length(w, um(1), um(3), 3.9);
  EXPECT_GT(c_low, c_high);
  const double c_wider =
      extract::ground_cap_per_length(w * 2, um(1), um(1), 3.9);
  EXPECT_GT(c_wider, extract::ground_cap_per_length(w, um(1), um(1), 3.9));
}

TEST_P(CapMonotonic, CouplingCapMonotoneInSpacing) {
  const double s0 = um(GetParam());
  const double c_near =
      extract::coupling_cap_per_length(um(1), um(1), s0, um(2), 3.9);
  const double c_far =
      extract::coupling_cap_per_length(um(1), um(1), s0 * 2, um(2), 3.9);
  EXPECT_GT(c_near, c_far);
}

INSTANTIATE_TEST_SUITE_P(GeometrySweep, CapMonotonic,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0));

// ---------------------------------------------------------------------------
// Invariant: the loop extractor's R(f) is non-decreasing and L(f)
// non-increasing for any return-path spacing (the Fig. 3b signature).
// ---------------------------------------------------------------------------

class LoopDispersion : public ::testing::TestWithParam<double> {};

TEST_P(LoopDispersion, SkinSignatureHolds) {
  const double spacing = um(GetParam());
  geom::Layout l(geom::default_tech());
  const int sig = l.add_net("sig", geom::NetKind::Signal);
  const int gnd = l.add_net("gnd", geom::NetKind::Ground);
  l.add_wire(sig, 6, {0, 0}, {um(600), 0}, um(2));
  l.add_wire(gnd, 6, {0, spacing}, {um(600), spacing}, um(2));
  l.add_wire(gnd, 6, {0, -spacing}, {um(600), -spacing}, um(2));
  geom::Driver d;
  d.at = {0, 0};
  d.layer = 6;
  d.signal_net = sig;
  l.add_driver(d);
  geom::Receiver r;
  r.at = {um(600), 0};
  r.layer = 6;
  r.signal_net = sig;
  r.name = "rcv";
  l.add_receiver(r);

  loop::LoopExtractionOptions opts;
  opts.max_segment_length = um(200);
  opts.mqs.skin.max_width = um(0.4);
  opts.mqs.skin.max_thickness = um(0.4);
  const auto sweep =
      loop::extract_loop_rl(l, sig, {1e8, 1e9, 1e10, 1e11}, opts);
  for (std::size_t k = 1; k < sweep.size(); ++k) {
    EXPECT_GE(sweep[k].resistance, sweep[k - 1].resistance * 0.999);
    EXPECT_LE(sweep[k].inductance, sweep[k - 1].inductance * 1.001);
    EXPECT_GT(sweep[k].inductance, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(SpacingSweep, LoopDispersion,
                         ::testing::Values(4.0, 8.0, 16.0, 32.0));

// ---------------------------------------------------------------------------
// Invariant: transient energy conservation — with a passive RLC circuit and
// no source activity after t0, node voltages decay toward the source level.
// ---------------------------------------------------------------------------

class PassiveDecay : public ::testing::TestWithParam<double> {};

TEST_P(PassiveDecay, RingingDecaysForAnyDamping) {
  const double r = GetParam();
  circuit::Netlist nl;
  const auto in = nl.node("in");
  const auto a = nl.node("a");
  const auto out = nl.node("out");
  nl.add_vsource(in, circuit::kGround, circuit::Pwl({{0.0, 0.0}, {1e-12, 1.0}}));
  nl.add_inductor(in, a, 1e-9);
  nl.add_resistor(a, out, r);
  nl.add_capacitor(out, circuit::kGround, 1e-12);
  circuit::TransientOptions opts;
  opts.t_stop = 20e-9;
  opts.dt = 1e-12;
  const auto res = circuit::transient(
      nl, {{circuit::ProbeKind::NodeVoltage, static_cast<std::size_t>(out), "o"}},
      opts);
  // Peak deviation over the last quarter must be far below the first quarter
  // (passive circuit: the trapezoidal rule must not pump energy).
  const auto& w = res.samples[0];
  double early = 0.0, late = 0.0;
  const std::size_t n = w.size();
  for (std::size_t k = 0; k < n / 4; ++k)
    early = std::max(early, std::abs(w[k] - 1.0));
  for (std::size_t k = 3 * n / 4; k < n; ++k)
    late = std::max(late, std::abs(w[k] - 1.0));
  EXPECT_LT(late, 0.1 * early + 1e-6) << "R = " << r;
}

INSTANTIATE_TEST_SUITE_P(DampingSweep, PassiveDecay,
                         ::testing::Values(1.0, 5.0, 20.0, 100.0));

}  // namespace

// ---------------------------------------------------------------------------
// Physics property: wave causality. On a low-loss line, the receiver cannot
// respond before the electromagnetic flight time l*sqrt(L'C') — the RLC
// model must respect it, while a pure RC model (diffusive) responds
// immediately. Sweeps line length.
// ---------------------------------------------------------------------------

#include "circuit/netlist.hpp"
#include "circuit/waveform.hpp"

namespace {

class WaveCausality : public ::testing::TestWithParam<int> {};

TEST_P(WaveCausality, ReceiverRespectsFlightTime) {
  const int stages = GetParam();
  // Distributed LC ladder: L' = 0.5 nH/stage, C' = 0.2 pF/stage.
  const double l_st = 0.5e-9, c_st = 0.2e-12;
  circuit::Netlist nl;
  const auto in = nl.node("in");
  nl.add_vsource(in, circuit::kGround,
                 circuit::Pwl({{0.0, 0.0}, {2e-12, 1.0}}));
  circuit::NodeId prev = in;
  for (int k = 0; k < stages; ++k) {
    const auto next = nl.make_node();
    nl.add_inductor(prev, next, l_st);
    nl.add_resistor(next, circuit::kGround, 1e7);  // leak for DC stability
    nl.add_capacitor(next, circuit::kGround, c_st);
    prev = next;
  }
  const double t_flight = stages * std::sqrt(l_st * c_st);

  circuit::TransientOptions opts;
  opts.t_stop = 6.0 * t_flight;
  opts.dt = t_flight / (60.0 * stages);
  const auto res = circuit::transient(
      nl, {{circuit::ProbeKind::NodeVoltage, static_cast<std::size_t>(prev), "o"}},
      opts);
  // 10% threshold crossing happens no earlier than ~80% of flight time
  // (lumped ladders slightly precurse the ideal TL).
  const auto t10 = circuit::crossing_time(res.time, res.samples[0], 0.1, true);
  ASSERT_TRUE(t10.has_value());
  EXPECT_GT(*t10, 0.8 * t_flight) << "wavefront arrived unphysically early";
}

INSTANTIATE_TEST_SUITE_P(LineLengths, WaveCausality,
                         ::testing::Values(5, 10, 20));

// ---------------------------------------------------------------------------
// MQS reciprocity: the impedance seen between two ports of a linear
// reciprocal network satisfies Z12 = Z21. Checked by driving either end of
// a signal/return pair.
// ---------------------------------------------------------------------------

#include "loop/mqs_solver.hpp"

class MqsReciprocity : public ::testing::TestWithParam<double> {};

TEST_P(MqsReciprocity, TransferImpedanceSymmetric) {
  const double freq = GetParam();
  geom::Layout l(geom::default_tech());
  const int sig = l.add_net("sig", geom::NetKind::Signal);
  const int gnd = l.add_net("gnd", geom::NetKind::Ground);
  l.add_wire(sig, 6, {0, 0}, {um(600), 0}, um(2));
  l.add_wire(gnd, 6, {0, um(8)}, {um(600), um(8)}, um(2));
  const geom::Layout fine = geom::refine(l, um(200));
  loop::MqsSolver solver(fine.segments(), fine.vias(), fine.tech(), {});
  const auto a_sig = solver.node_at({0, 0}, 6);
  const auto a_gnd = solver.node_at({0, um(8)}, 6);
  const auto b_sig = solver.node_at({um(600), 0}, 6);
  const auto b_gnd = solver.node_at({um(600), um(8)}, 6);
  ASSERT_TRUE(a_sig && a_gnd && b_sig && b_gnd);
  // Close the far loop, drive the near port, and vice versa: the driving
  // point impedances of the two mirrored configurations must match (the
  // structure is symmetric under x -> L-x).
  loop::MqsSolver s1 = solver;
  s1.short_nodes(*b_sig, *b_gnd);
  const auto z1 = s1.port_impedance(*a_sig, *a_gnd, freq);
  loop::MqsSolver s2 = solver;
  s2.short_nodes(*a_sig, *a_gnd);
  const auto z2 = s2.port_impedance(*b_sig, *b_gnd, freq);
  EXPECT_NEAR(z1.resistance, z2.resistance, 1e-9 * std::abs(z1.resistance));
  EXPECT_NEAR(z1.inductance, z2.inductance, 1e-9 * std::abs(z1.inductance));
}

INSTANTIATE_TEST_SUITE_P(Frequencies, MqsReciprocity,
                         ::testing::Values(1e8, 1e9, 1e10));

}  // namespace
