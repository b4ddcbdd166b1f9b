// Unit tests for the Section-5 loop-inductance flow: MQS solver,
// frequency-dependent extraction, ladder fit, loop netlist.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "circuit/transient.hpp"
#include "circuit/waveform.hpp"
#include "extract/partial_inductance.hpp"
#include "extract/skin.hpp"
#include "geom/topologies.hpp"
#include "la/lu.hpp"
#include "loop/ladder_fit.hpp"
#include "loop/loop_model.hpp"
#include "loop/mqs_solver.hpp"
#include "loop/port_extractor.hpp"
#include "runtime/metrics.hpp"

namespace {

using namespace ind;
using geom::um;

// Signal wire with a single ground return at distance d: the classic
// two-wire loop whose inductance grows with log(d).
geom::Layout two_wire_loop(double spacing, double len = um(1000)) {
  geom::Layout l(geom::default_tech());
  const int sig = l.add_net("sig", geom::NetKind::Signal);
  const int gnd = l.add_net("gnd", geom::NetKind::Ground);
  l.add_wire(sig, 6, {0, 0}, {len, 0}, um(2));
  l.add_wire(gnd, 6, {0, spacing}, {len, spacing}, um(2));
  geom::Driver d;
  d.at = {0, 0};
  d.layer = 6;
  d.signal_net = sig;
  l.add_driver(d);
  geom::Receiver r;
  r.at = {len, 0};
  r.layer = 6;
  r.signal_net = sig;
  r.name = "rcv";
  l.add_receiver(r);
  return l;
}

TEST(MqsSolver, BuildsFilamentSystem) {
  const geom::Layout l = geom::refine(two_wire_loop(um(10)), um(250));
  loop::MqsOptions opts;
  loop::MqsSolver solver(l.segments(), l.vias(), l.tech(), opts);
  EXPECT_GE(solver.num_filaments(), l.segments().size());
  EXPECT_GT(solver.num_nodes(), 0u);
  EXPECT_TRUE(solver.node_at({0, 0}, 6).has_value());
  EXPECT_FALSE(solver.node_at({um(5000), 0}, 6).has_value());
}

TEST(MqsSolver, TwoWireLoopImpedanceMagnitude) {
  // Loop inductance of two parallel wires: L = (mu0 l / pi) ln(d/r) + ...
  // For l=1mm, d=10um, r~1um: about 1 nH. Check the right ballpark.
  const geom::Layout l = geom::refine(two_wire_loop(um(10)), um(250));
  loop::MqsSolver solver(l.segments(), l.vias(), l.tech(), {});
  const auto plus = solver.node_at({0, 0}, 6);
  const auto minus = solver.node_at({0, um(10)}, 6);
  ASSERT_TRUE(plus && minus);
  // Short the far end to close the loop.
  const auto p_far = solver.node_at({um(1000), 0}, 6);
  const auto m_far = solver.node_at({um(1000), um(10)}, 6);
  ASSERT_TRUE(p_far && m_far);
  loop::MqsSolver s2 = solver;
  s2.short_nodes(*p_far, *m_far);
  const auto z = s2.port_impedance(*plus, *minus, 1e9);
  EXPECT_GT(z.inductance, 0.3e-9);
  EXPECT_LT(z.inductance, 3e-9);
  EXPECT_GT(z.resistance, 0.0);
}

TEST(MqsSolver, WiderLoopHasHigherInductance) {
  auto measure = [&](double spacing) {
    const geom::Layout l = geom::refine(two_wire_loop(spacing), um(250));
    loop::MqsSolver solver(l.segments(), l.vias(), l.tech(), {});
    const auto plus = solver.node_at({0, 0}, 6);
    const auto minus = solver.node_at({0, spacing}, 6);
    const auto p_far = solver.node_at({um(1000), 0}, 6);
    const auto m_far = solver.node_at({um(1000), spacing}, 6);
    solver.short_nodes(*p_far, *m_far);
    return solver.port_impedance(*plus, *minus, 1e9).inductance;
  };
  EXPECT_LT(measure(um(4)), measure(um(40)));
}

TEST(MqsSolver, PortOnShortedNodesThrows) {
  const geom::Layout l = geom::refine(two_wire_loop(um(10)), um(500));
  loop::MqsSolver solver(l.segments(), l.vias(), l.tech(), {});
  const auto a = solver.node_at({0, 0}, 6);
  const auto b = solver.node_at({0, um(10)}, 6);
  solver.short_nodes(*a, *b);
  EXPECT_THROW(solver.port_impedance(*a, *b, 1e9), std::invalid_argument);
}

// A port between two nodes of layer 6, with the node pairs it shorts.
struct PortSetup {
  geom::Point plus, minus;
  std::vector<std::pair<geom::Point, geom::Point>> shorts;
};

struct OracleResult {
  loop::LoopImpedance z;
  std::int64_t independent_loops = 0;  // filaments - nodes + components
};

// Oracle for the Dense path that shares none of its solve: the nodal
// [KCL; branch] saddle system of the filament network, assembled here from
// coordinate-keyed nodes, with one unit-conductance pin per conductor group
// that does not reach the reference, solved by la::CLU.
OracleResult saddle_oracle(const geom::Layout& l, const loop::MqsOptions& opts,
                           const PortSetup& port, double f) {
  std::vector<std::size_t> parent_of;
  const std::vector<geom::Segment> fil =
      extract::split_all(l.segments(), parent_of, opts.skin);
  const la::Matrix lm = extract::build_partial_inductance_matrix(
      fil, {.window = opts.mutual_window});
  std::map<std::tuple<long long, long long, int>, std::size_t> ids;
  const auto id = [&](geom::Point p, int layer) {
    const auto key = std::tuple{std::llround(p.x / 1e-9),
                                std::llround(p.y / 1e-9), layer};
    return ids.try_emplace(key, ids.size()).first->second;
  };
  std::vector<std::size_t> a, b;
  for (std::size_t k = 0; k < fil.size(); ++k) {
    a.push_back(id(l.segments()[parent_of[k]].a, fil[k].layer));
    b.push_back(id(l.segments()[parent_of[k]].b, fil[k].layer));
  }
  std::vector<std::pair<std::size_t, std::size_t>> shorts;
  for (const auto& [p, q] : port.shorts) shorts.push_back({id(p, 6), id(q, 6)});
  const std::size_t plus_id = id(port.plus, 6), ref_id = id(port.minus, 6);

  // Union-find roots: `up` merges shorted nodes, `group` then merges the
  // filament graph's connected conductor groups.
  std::vector<std::size_t> up(ids.size()), group(ids.size());
  std::iota(up.begin(), up.end(), 0);
  std::iota(group.begin(), group.end(), 0);
  const auto find = [](std::vector<std::size_t>& uf, std::size_t x) {
    while (uf[x] != x) x = uf[x];
    return x;
  };
  for (const auto& [p, q] : shorts) up[find(up, p)] = find(up, q);
  const std::size_t plus = find(up, plus_id), ref = find(up, ref_id);
  for (std::size_t k = 0; k < fil.size(); ++k) {
    a[k] = find(up, a[k]);
    b[k] = find(up, b[k]);
  }
  std::map<std::size_t, std::ptrdiff_t> row;  // node -> KCL row, ref: -1
  for (std::size_t k = 0; k < fil.size(); ++k) {
    group[find(group, a[k])] = find(group, b[k]);
    for (const std::size_t n : {a[k], b[k]})
      row.try_emplace(n, n == ref ? -1 : 0);
  }
  std::size_t n_active = 0;
  std::map<std::size_t, std::ptrdiff_t> pin_of_group;
  for (auto& [n, r] : row) {
    if (n == ref) continue;
    r = static_cast<std::ptrdiff_t>(n_active++);
    if (find(group, n) != find(group, ref))
      pin_of_group.try_emplace(find(group, n), r);
  }
  std::set<std::size_t> groups;
  for (const auto& [n, r] : row) groups.insert(find(group, n));

  const std::size_t nf = fil.size(), size = n_active + nf;
  const double omega = 2 * M_PI * f;
  la::CMatrix sys(size, size);
  for (std::size_t k = 0; k < nf; ++k) {
    const geom::Layer& layer = l.tech().layer(fil[k].layer);
    const double r = std::max(layer.sheet_resistance * layer.thickness *
                                  fil[k].length() /
                                  (fil[k].width * fil[k].thickness),
                              1e-9);
    const std::size_t br = n_active + k;
    for (const auto& [n, sign] : {std::pair{a[k], 1.0}, std::pair{b[k], -1.0}})
      if (const std::ptrdiff_t i = row.at(n); i >= 0) {
        sys(static_cast<std::size_t>(i), br) += sign;
        sys(br, static_cast<std::size_t>(i)) += sign;
      }
    sys(br, br) -= r;
    for (std::size_t m = 0; m < nf; ++m)
      sys(br, n_active + m) -= la::Complex{0.0, omega * lm(k, m)};
  }
  for (const auto& [g, i] : pin_of_group)
    sys(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += 1.0;
  la::CVector rhs(size);
  const auto p = static_cast<std::size_t>(row.at(plus));
  rhs[p] = 1.0;
  const la::Complex z = la::CLU(std::move(sys)).solve(rhs)[p];
  return {{f, z.real(), z.imag() / omega},
          static_cast<std::int64_t>(nf) -
              static_cast<std::int64_t>(row.size()) +
              static_cast<std::int64_t>(groups.size())};
}

// Dense R and L against the saddle oracle, and the recorded mesh count
// against the filament graph's number of independent loops.
void expect_matches_saddle(const geom::Layout& l, const loop::MqsOptions& opts,
                           const PortSetup& port, double f) {
  loop::MqsSolver s(l.segments(), l.vias(), l.tech(), opts);
  const auto at = [&](geom::Point p) {
    const auto n = s.node_at(p, 6);
    EXPECT_TRUE(n.has_value()) << "no node at (" << p.x << ", " << p.y << ")";
    return n.value_or(0);
  };
  for (const auto& [p, q] : port.shorts) s.short_nodes(at(p), at(q));
  auto& metrics = runtime::MetricsRegistry::instance();
  metrics.reset();
  const loop::LoopImpedance z = s.port_impedance(at(port.plus),
                                                 at(port.minus), f);
  const OracleResult want = saddle_oracle(l, opts, port, f);
  EXPECT_NEAR(z.resistance, want.z.resistance, 1e-10 * want.z.resistance);
  EXPECT_NEAR(z.inductance, want.z.inductance, 1e-10 * want.z.inductance);
  EXPECT_EQ(metrics.counter("solve.mqs_port.max_meshes").value.load(),
            want.independent_loops);
}

// The two-wire loop of two_wire_loop(spacing), refined every 250 um, with
// the port at x = 0 and the far end shorted.
PortSetup two_wire_port(double spacing) {
  return {{0, 0}, {0, spacing}, {{{um(1000), 0}, {um(1000), spacing}}}};
}

TEST(MqsSolver, DenseMatchesSaddleOracleOnStrappedReturns) {
  // Signal with three returns per side strapped at both ends: the
  // loop_extract benchmark's Dense structure (36 cells of 4 um) for each
  // middle-return slot.
  constexpr int kCols = 36;
  const double p = um(4), len = kCols * p;
  for (const int mid : {3, 5, 7}) {
    geom::Layout l(geom::default_tech());
    const int sig = l.add_net("sig", geom::NetKind::Signal);
    const int gnd = l.add_net("gnd", geom::NetKind::Ground);
    l.add_wire(sig, 6, {0, 0}, {len, 0}, um(2));
    for (const int side : {1, -1}) {
      for (const int slot : {2, mid, 8})
        l.add_wire(gnd, 6, {0, side * slot * p}, {len, side * slot * p},
                   um(2));
      for (const double x : {0.0, len})
        l.add_wire(gnd, 6, {x, side * 2 * p}, {x, side * 8 * p}, um(2));
    }
    const PortSetup port{{0, 0},
                         {0, 2 * p},
                         {{{0, 2 * p}, {0, -2 * p}},
                          {{len, 0}, {len, 2 * p}},
                          {{len, 0}, {len, -2 * p}}}};
    SCOPED_TRACE(mid);
    expect_matches_saddle(geom::refine(l, p), {}, port, 1e9);
  }
}

TEST(MqsSolver, DenseMatchesSaddleOracleOnSkinSplitLine) {
  // Parallel filaments of one parent share its two nodes: every extra
  // filament of a segment closes one more mesh.
  loop::MqsOptions opts;
  opts.skin.max_width = um(0.5);
  opts.skin.max_thickness = um(0.5);
  const geom::Layout l = geom::refine(two_wire_loop(um(6)), um(250));
  for (const double f : {1e8, 1e10})
    expect_matches_saddle(l, opts, two_wire_port(um(6)), f);
}

TEST(MqsSolver, DenseMatchesSaddleOracleWithFloatingConductors) {
  geom::Layout ring = two_wire_loop(um(10));
  const int r = ring.add_net("ring", geom::NetKind::Ground);
  // A closed ring beside the loop carries an eddy-current mesh of its own.
  const geom::Point c[] = {{0, um(20)}, {um(1000), um(20)},
                           {um(1000), um(40)}, {0, um(40)}};
  for (int k = 0; k < 4; ++k) ring.add_wire(r, 6, c[k], c[(k + 1) % 4], um(2));
  expect_matches_saddle(geom::refine(ring, um(250)), {},
                        two_wire_port(um(10)), 1e9);

  // An open chain beside the loop is a tree: no mesh, no current.
  geom::Layout chain = two_wire_loop(um(10));
  chain.add_wire(chain.add_net("chain", geom::NetKind::Ground), 6,
                 {0, um(20)}, {um(1000), um(20)}, um(2));
  expect_matches_saddle(geom::refine(chain, um(250)), {},
                        two_wire_port(um(10)), 1e9);
}

TEST(MqsSolver, DenseMatchesSaddleOracleWithSelfLoopFilament) {
  // Shorting both ends of one segment turns its filament into a self-loop:
  // a one-branch mesh that carries only induced current.
  const geom::Layout l = geom::refine(two_wire_loop(um(10)), um(250));
  PortSetup port = two_wire_port(um(10));
  port.shorts.push_back({{um(250), um(10)}, {um(500), um(10)}});
  expect_matches_saddle(l, {}, port, 1e9);
  // The first filament as a self-loop on the reference node, which roots
  // the spanning forest.
  port = {{0, um(10)}, {0, 0}, {{{um(1000), 0}, {um(1000), um(10)}},
                                {{0, 0}, {um(250), 0}}}};
  expect_matches_saddle(l, {}, port, 1e9);
}

TEST(MqsSolver, PortAcrossDisconnectedGroupsThrows) {
  // No far-end short: signal and return are separate conductor groups, so
  // the port drives no closed loop.
  const geom::Layout l = geom::refine(two_wire_loop(um(8)), um(40));
  loop::MqsOptions fft;
  fft.method = loop::ExtractionMethod::FftGmres;
  fft.fast.voxel.pitch = um(4);
  for (const loop::MqsOptions& opts : {loop::MqsOptions{}, fft}) {
    const loop::MqsSolver s(l.segments(), l.vias(), l.tech(), opts);
    EXPECT_THROW(s.port_impedance(*s.node_at({0, 0}, 6),
                                  *s.node_at({0, um(8)}, 6), 1e9),
                 std::invalid_argument)
        << loop::to_string(s.method());
  }
}

TEST(LoopExtraction, SkinEffectSignature) {
  // R(f) must rise and L(f) must fall with frequency (Fig. 3b).
  const geom::Layout l = two_wire_loop(um(6));
  loop::LoopExtractionOptions opts;
  opts.max_segment_length = um(250);
  // Fine filament splitting so in-conductor current crowding (skin /
  // proximity) is representable.
  opts.mqs.skin.max_width = um(0.4);
  opts.mqs.skin.max_thickness = um(0.4);
  const auto sweep = loop::extract_loop_rl(
      l, l.find_net("sig"), {1e8, 1e9, 1e10, 1e11}, opts);
  ASSERT_EQ(sweep.size(), 4u);
  for (std::size_t k = 1; k < sweep.size(); ++k) {
    EXPECT_GE(sweep[k].resistance, sweep[k - 1].resistance * 0.999)
        << "R must not fall with frequency";
    EXPECT_LE(sweep[k].inductance, sweep[k - 1].inductance * 1.001)
        << "L must not rise with frequency";
  }
  // And the change must be visible overall.
  EXPECT_GT(sweep.back().resistance, sweep.front().resistance);
  EXPECT_LT(sweep.back().inductance, sweep.front().inductance);
}

TEST(LoopExtraction, GridReturnLowersInductance) {
  // A dense ground grid gives closer return paths than a single far wire.
  geom::Layout single = two_wire_loop(um(50));

  geom::Layout gridded(geom::default_tech());
  const int sig = gridded.add_net("sig", geom::NetKind::Signal);
  const int gnd = gridded.add_net("gnd", geom::NetKind::Ground);
  gridded.add_wire(sig, 6, {0, 0}, {um(1000), 0}, um(2));
  for (int i = 1; i <= 4; ++i) {
    gridded.add_wire(gnd, 6, {0, i * um(6)}, {um(1000), i * um(6)}, um(2));
    gridded.add_wire(gnd, 6, {0, -i * um(6)}, {um(1000), -i * um(6)}, um(2));
  }
  geom::Driver d;
  d.at = {0, 0};
  d.layer = 6;
  d.signal_net = sig;
  gridded.add_driver(d);
  geom::Receiver r;
  r.at = {um(1000), 0};
  r.layer = 6;
  r.signal_net = sig;
  r.name = "rcv";
  gridded.add_receiver(r);

  loop::LoopExtractionOptions opts;
  opts.max_segment_length = um(250);
  const double l_single =
      loop::extract_loop_rl(single, single.find_net("sig"), {1e9}, opts)[0]
          .inductance;
  const double l_grid =
      loop::extract_loop_rl(gridded, sig, {1e9}, opts)[0].inductance;
  EXPECT_LT(l_grid, l_single);
}

TEST(LoopExtraction, FrequencySweepHelper) {
  const auto f = loop::log_frequency_sweep(1e8, 1e10, 5);
  ASSERT_EQ(f.size(), 5u);
  EXPECT_NEAR(f.front(), 1e8, 1);
  EXPECT_NEAR(f.back(), 1e10, 100);
  EXPECT_NEAR(f[1] / f[0], f[2] / f[1], 1e-9);  // log spacing
  EXPECT_THROW(loop::log_frequency_sweep(1e9, 1e8, 3), std::invalid_argument);
}

TEST(LadderFit, ReproducesAnchorPoints) {
  const loop::LoopImpedance low{1e8, 2.0, 1.2e-9};
  const loop::LoopImpedance high{1e10, 5.0, 0.8e-9};
  const loop::LadderModel m = loop::fit_ladder(low, high);
  ASSERT_TRUE(m.has_parallel_branch());
  const double w1 = 2 * M_PI * low.frequency, w2 = 2 * M_PI * high.frequency;
  EXPECT_NEAR(m.resistance(w1), low.resistance, 0.05 * low.resistance);
  EXPECT_NEAR(m.inductance(w1), low.inductance, 0.05 * low.inductance);
  EXPECT_NEAR(m.resistance(w2), high.resistance, 0.05 * high.resistance);
  EXPECT_NEAR(m.inductance(w2), high.inductance, 0.05 * high.inductance);
}

TEST(LadderFit, MonotoneBetweenAnchors) {
  const loop::LoopImpedance low{1e8, 2.0, 1.2e-9};
  const loop::LoopImpedance high{1e10, 5.0, 0.8e-9};
  const loop::LadderModel m = loop::fit_ladder(low, high);
  double r_prev = 0.0, l_prev = 1e9;
  for (double f : loop::log_frequency_sweep(1e7, 1e11, 20)) {
    const double w = 2 * M_PI * f;
    EXPECT_GE(m.resistance(w), r_prev - 1e-12);
    EXPECT_LE(m.inductance(w), l_prev + 1e-21);
    r_prev = m.resistance(w);
    l_prev = m.inductance(w);
  }
}

TEST(LadderFit, DegeneratesToSeriesRl) {
  const loop::LoopImpedance low{1e8, 2.0, 1e-9};
  const loop::LoopImpedance high{1e10, 2.0, 1e-9};  // no dispersion
  const loop::LadderModel m = loop::fit_ladder(low, high);
  EXPECT_FALSE(m.has_parallel_branch());
  EXPECT_DOUBLE_EQ(m.r0, 2.0);
  EXPECT_DOUBLE_EQ(m.l0, 1e-9);
}

TEST(LoopModel, BuildsAndSimulates) {
  const geom::Layout l = two_wire_loop(um(6));
  loop::LoopModelOptions opts;
  opts.extraction.max_segment_length = um(250);
  opts.max_segment_length = um(250);
  const loop::LoopModel m = loop::build_loop_model(l, l.find_net("sig"), opts);
  EXPECT_GT(m.extracted.inductance, 0.0);
  EXPECT_GT(m.total_cap, 0.0);
  ASSERT_EQ(m.receiver_probes.size(), 1u);

  circuit::TransientOptions topts;
  topts.t_stop = 1e-9;
  topts.dt = 1e-12;
  const auto res = circuit::transient(m.netlist, m.receiver_probes, topts);
  EXPECT_NEAR(res.samples[0].back(), opts.vdd, 0.05);
  const auto d = circuit::delay_50(res.time, res.samples[0], 0.0, opts.vdd);
  EXPECT_TRUE(d.has_value());
}

TEST(LoopModel, LadderVariantBuilds) {
  const geom::Layout l = two_wire_loop(um(6));
  loop::LoopModelOptions opts;
  opts.use_ladder = true;
  opts.extraction.max_segment_length = um(250);
  opts.max_segment_length = um(250);
  const loop::LoopModel m = loop::build_loop_model(l, l.find_net("sig"), opts);
  ASSERT_TRUE(m.ladder.has_value());
  // Ladder netlist has more elements per segment.
  EXPECT_GT(m.netlist.counts().inductors, 0u);
  circuit::TransientOptions topts;
  topts.t_stop = 1e-9;
  topts.dt = 1e-12;
  const auto res = circuit::transient(m.netlist, m.receiver_probes, topts);
  EXPECT_NEAR(res.samples[0].back(), opts.vdd, 0.05);
}

TEST(LoopModel, MuchSmallerThanItLooks) {
  // Loop model drops the grid: its element count must not include any of
  // the ground-net geometry.
  const geom::Layout l = two_wire_loop(um(6));
  loop::LoopModelOptions opts;
  opts.extraction.max_segment_length = um(250);
  opts.max_segment_length = um(100);
  const loop::LoopModel m = loop::build_loop_model(l, l.find_net("sig"), opts);
  // 10 segments of signal only: counts stay small and mutual-free.
  EXPECT_EQ(m.netlist.counts().mutuals, 0u);
  EXPECT_LE(m.netlist.counts().inductors, 11u);
}

}  // namespace

// ---------------------------------------------------------------------------
// Multi-section ladder fit (broadband extension of the [5] construction).
// ---------------------------------------------------------------------------

namespace {

using namespace ind;
using geom::um;

// Synthetic sweep generated from a known 2-branch ladder.
std::vector<loop::LoopImpedance> synthetic_sweep() {
  loop::MultiLadderModel truth;
  truth.r0 = 3.0;
  truth.l0 = 0.6e-9;
  truth.branches = {{2.0, 0.4e-9}, {6.0, 0.1e-9}};
  std::vector<loop::LoopImpedance> sweep;
  for (double f : loop::log_frequency_sweep(1e7, 1e11, 15)) {
    const double w = 2 * M_PI * f;
    sweep.push_back({f, truth.resistance(w), truth.inductance(w)});
  }
  return sweep;
}

TEST(MultiLadder, RecoversSyntheticModel) {
  const auto sweep = synthetic_sweep();
  const auto fit = loop::fit_ladder_multi(sweep, 2);
  EXPECT_LT(loop::ladder_fit_error(fit, sweep), 1e-3);
}

TEST(MultiLadder, MoreBranchesFitBetter) {
  // Fit a real MQS sweep: two branches must beat one.
  geom::Layout l = two_wire_loop(um(6));
  loop::LoopExtractionOptions opts;
  opts.max_segment_length = um(250);
  opts.mqs.skin.max_width = um(0.4);
  opts.mqs.skin.max_thickness = um(0.4);
  const auto sweep = loop::extract_loop_rl(
      l, l.find_net("sig"), loop::log_frequency_sweep(1e8, 1e11, 9), opts);
  const auto one = loop::fit_ladder_multi(sweep, 1);
  const auto three = loop::fit_ladder_multi(sweep, 3);
  EXPECT_LE(loop::ladder_fit_error(three, sweep),
            loop::ladder_fit_error(one, sweep) * 1.01);
  EXPECT_LT(loop::ladder_fit_error(three, sweep), 0.05);
}

TEST(MultiLadder, ZeroBranchesIsSeriesRl) {
  const auto sweep = synthetic_sweep();
  const auto fit = loop::fit_ladder_multi(sweep, 0);
  EXPECT_TRUE(fit.branches.empty());
  EXPECT_GT(fit.r0, 0.0);
  EXPECT_GT(fit.l0, 0.0);
}

TEST(MultiLadder, MonotoneRAndL) {
  const auto sweep = synthetic_sweep();
  const auto fit = loop::fit_ladder_multi(sweep, 2);
  double r_prev = 0.0, l_prev = 1e9;
  for (double f : loop::log_frequency_sweep(1e7, 1e11, 30)) {
    const double w = 2 * M_PI * f;
    EXPECT_GE(fit.resistance(w), r_prev - 1e-9);
    EXPECT_LE(fit.inductance(w), l_prev + 1e-18);
    r_prev = fit.resistance(w);
    l_prev = fit.inductance(w);
  }
}

TEST(MultiLadder, RejectsBadInputs) {
  EXPECT_THROW(loop::fit_ladder_multi({}, 1), std::invalid_argument);
  EXPECT_THROW(loop::fit_ladder_multi(synthetic_sweep(), -1),
               std::invalid_argument);
}

}  // namespace
