// Unit tests for the Section-7 design techniques and the shield-insertion /
// net-ordering optimiser.
#include <gtest/gtest.h>

#include <cmath>

#include "design/metrics.hpp"
#include "design/shield_optimizer.hpp"
#include "geom/topologies.hpp"

namespace {

using namespace ind;
using geom::um;

TEST(Metrics, ShieldingReducesLoopInductance) {
  // Fig. 5: sandwiching a signal between ground shields forces close
  // return paths and cuts loop inductance.
  auto build = [&](bool shielded) {
    geom::Layout l(geom::default_tech());
    const int sig = l.add_net("sig", geom::NetKind::Signal);
    const int gnd = l.add_net("gnd", geom::NetKind::Ground);
    l.add_wire(sig, 6, {0, 0}, {um(800), 0}, um(2));
    // A far return always exists (power grid strap).
    l.add_wire(gnd, 6, {0, um(60)}, {um(800), um(60)}, um(4));
    if (shielded) {
      l.add_wire(gnd, 6, {0, um(4)}, {um(800), um(4)}, um(2));
      l.add_wire(gnd, 6, {0, -um(4)}, {um(800), -um(4)}, um(2));
    }
    geom::Driver d;
    d.at = {0, 0};
    d.layer = 6;
    d.signal_net = sig;
    l.add_driver(d);
    geom::Receiver r;
    r.at = {um(800), 0};
    r.layer = 6;
    r.signal_net = sig;
    r.name = "rcv";
    l.add_receiver(r);
    return l;
  };
  loop::LoopExtractionOptions opts;
  opts.max_segment_length = um(200);
  const geom::Layout bare = build(false);
  const geom::Layout shielded = build(true);
  const double l_bare =
      design::loop_inductance_at(bare, bare.find_net("sig"), 1e9, opts);
  const double l_shield = design::loop_inductance_at(
      shielded, shielded.find_net("sig"), 1e9, opts);
  EXPECT_LT(l_shield, 0.7 * l_bare);
}

TEST(Metrics, TwistedBundleCancelsMutual) {
  // Fig. 9: the flux an aggressor couples into the victim's loop (victim +
  // ground return) collapses when the bundle is twisted — the per-region
  // contributions alternate in sign.
  geom::TwistedBundleSpec spec;
  spec.bits = 4;
  spec.regions = 4;

  geom::Layout parallel(geom::default_tech());
  spec.twisted = false;
  const auto pr = geom::add_twisted_bundle(parallel, spec);

  geom::Layout twisted(geom::default_tech());
  spec.twisted = true;
  const auto tr = geom::add_twisted_bundle(twisted, spec);

  // Aggressor loop = pair (2,3); victim loop = pair (0,1).
  const double m_par = std::abs(design::pair_loop_mutual(
      parallel, pr.signal_nets[2], pr.signal_nets[3], pr.signal_nets[0],
      pr.signal_nets[1]));
  const double m_tw = std::abs(design::pair_loop_mutual(
      twisted, tr.signal_nets[2], tr.signal_nets[3], tr.signal_nets[0],
      tr.signal_nets[1]));
  EXPECT_LT(m_tw, 0.2 * m_par);
}

TEST(Metrics, CouplingCapBetweenAdjacentNets) {
  geom::Layout l(geom::default_tech());
  geom::BusSpec spec;
  spec.bits = 2;
  spec.add_drivers = false;
  const auto r = geom::add_bus(l, spec);
  const double c = design::net_coupling_capacitance(l, r.signal_nets[0],
                                                    r.signal_nets[1]);
  EXPECT_GT(c, 0.0);
  // Order-independent.
  EXPECT_DOUBLE_EQ(c, design::net_coupling_capacitance(l, r.signal_nets[1],
                                                       r.signal_nets[0]));
}

TEST(Metrics, VictimNoiseDetectsCoupling) {
  geom::Layout l(geom::default_tech());
  geom::BusSpec spec;
  spec.bits = 2;
  spec.length = um(600);
  spec.spacing = um(0.5);
  const auto bus = geom::add_bus(l, spec);

  peec::PeecOptions popts;
  popts.max_segment_length = um(200);
  circuit::TransientOptions topts;
  topts.t_stop = 0.6e-9;
  topts.dt = 2e-12;
  const auto noise = design::victim_noise(l, {bus.signal_nets[0]},
                                          bus.signal_nets[1], popts, topts);
  EXPECT_GT(noise.peak_volts, 0.01);  // visible crosstalk
  EXPECT_LT(noise.peak_volts, 1.8);   // but not full swing
}

// ---------------- shield optimizer ----------------

design::ShieldOrderProblem uniform_problem(int nets, int shields) {
  design::ShieldOrderProblem p;
  p.nets = nets;
  p.sensitivity = la::Matrix(static_cast<std::size_t>(nets),
                             static_cast<std::size_t>(nets));
  for (int i = 0; i < nets; ++i)
    for (int j = 0; j < nets; ++j)
      if (i != j) p.sensitivity(i, j) = 1.0;
  p.max_shields = shields;
  return p;
}

TEST(ShieldOptimizer, CostDropsWithShield) {
  const auto p = uniform_problem(4, 4);
  design::TrackAssignment plain;
  plain.order = {0, 1, 2, 3};
  plain.shield_after.assign(4, false);
  const double c0 = design::evaluate_cost(p, plain);
  design::TrackAssignment shielded = plain;
  shielded.shield_after[1] = true;
  const double c1 = design::evaluate_cost(p, shielded);
  EXPECT_LT(c1, c0);
}

TEST(ShieldOptimizer, GreedyUsesBudget) {
  const auto p = uniform_problem(5, 2);
  const auto t = design::solve_greedy(p);
  EXPECT_EQ(t.shields_used(), 2);
  EXPECT_EQ(t.order.size(), 5u);
}

TEST(ShieldOptimizer, GreedyMatchesOracleOnUniform) {
  const auto p = uniform_problem(4, 1);
  const auto greedy = design::solve_greedy(p);
  const auto oracle = design::solve_exhaustive(p);
  // Uniform weights: any ordering ties, shield placement drives the cost.
  EXPECT_NEAR(design::evaluate_cost(p, greedy),
              design::evaluate_cost(p, oracle), 1e-12);
}

TEST(ShieldOptimizer, AnnealingNotWorseThanGreedy) {
  design::ShieldOrderProblem p = uniform_problem(6, 2);
  // Skewed weights: net 0 is a big aggressor for net 5.
  p.sensitivity(5, 0) = p.sensitivity(0, 5) = 10.0;
  const auto greedy = design::solve_greedy(p);
  const auto annealed = design::solve_annealing(p, 3, 20000);
  EXPECT_LE(design::evaluate_cost(p, annealed),
            design::evaluate_cost(p, greedy) + 1e-12);
}

TEST(ShieldOptimizer, AnnealingNearOracleOnSmallInstance) {
  design::ShieldOrderProblem p = uniform_problem(5, 1);
  p.sensitivity(0, 1) = p.sensitivity(1, 0) = 8.0;
  p.sensitivity(2, 3) = p.sensitivity(3, 2) = 5.0;
  const auto annealed = design::solve_annealing(p, 7, 30000);
  const auto oracle = design::solve_exhaustive(p);
  const double gap = design::evaluate_cost(p, annealed) -
                     design::evaluate_cost(p, oracle);
  EXPECT_LE(gap, 0.10 * design::evaluate_cost(p, oracle) + 1e-12);
}

TEST(ShieldOptimizer, SeparatingHotPairBeatsAdjacent) {
  design::ShieldOrderProblem p = uniform_problem(4, 0);
  p.sensitivity(0, 1) = p.sensitivity(1, 0) = 100.0;
  const auto best = design::solve_exhaustive(p);
  // Nets 0 and 1 must not end up adjacent.
  for (std::size_t k = 0; k + 1 < best.order.size(); ++k) {
    const bool adjacent_hot =
        (best.order[k] == 0 && best.order[k + 1] == 1) ||
        (best.order[k] == 1 && best.order[k + 1] == 0);
    EXPECT_FALSE(adjacent_hot);
  }
}

TEST(ShieldOptimizer, RealizeProducesValidLayout) {
  design::TrackAssignment t;
  t.order = {2, 0, 1};
  t.shield_after = {true, false, false};
  geom::BusSpec tmpl;
  tmpl.length = um(500);
  const geom::Layout l = design::realize_assignment(t, tmpl);
  EXPECT_EQ(l.segments().size(), 4u);  // 3 signals + 1 shield
  EXPECT_EQ(l.drivers().size(), 3u);
  EXPECT_GE(l.find_net("net2"), 0);
  // Shield sits between track 0 (net2) and track 2 (net0).
  int shield_count = 0;
  for (const auto& s : l.segments())
    if (s.kind == geom::NetKind::Ground) ++shield_count;
  EXPECT_EQ(shield_count, 1);
}

TEST(ShieldOptimizer, ExhaustiveRejectsLargeInstance) {
  EXPECT_THROW(design::solve_exhaustive(uniform_problem(9, 1)),
               std::invalid_argument);
}

}  // namespace

// ---------------------------------------------------------------------------
// Noise-bound constraints ([21]: "subject to constraints on area, and
// bounds on inductive and capacitive noise").
// ---------------------------------------------------------------------------

namespace {

design::ShieldOrderProblem bounded_problem() {
  design::ShieldOrderProblem p;
  p.nets = 4;
  p.sensitivity = la::Matrix(4, 4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      if (i != j) p.sensitivity(i, j) = 1.0;
  p.sensitivity(3, 0) = 6.0;  // net 3 is very sensitive to net 0
  p.max_shields = 1;
  return p;
}

/// True if every victim satisfies both noise bounds, judged from the public
/// compute_noise breakdown alone.
bool is_feasible(const design::ShieldOrderProblem& p,
                 const design::TrackAssignment& t) {
  const design::NoiseBreakdown nb = design::compute_noise(p, t);
  for (std::size_t i = 0; i < nb.cap_in.size(); ++i)
    if (nb.cap_in[i] > p.cap_noise_bound || nb.ind_in[i] > p.ind_noise_bound)
      return false;
  return true;
}

TEST(ShieldOptimizer, NoiseBreakdownSumsMatchCost) {
  const auto p = bounded_problem();
  design::TrackAssignment t;
  t.order = {0, 1, 2, 3};
  t.shield_after.assign(4, false);
  const auto nb = design::compute_noise(p, t);
  double cap = 0.0, ind = 0.0;
  for (std::size_t i = 0; i < nb.cap_in.size(); ++i) {
    cap += nb.cap_in[i];
    ind += nb.ind_in[i];
  }
  EXPECT_NEAR(design::evaluate_cost(p, t), p.cap_weight * cap + p.ind_weight * ind,
              1e-12);
}

TEST(ShieldOptimizer, FeasibilityReflectsBounds) {
  auto p = bounded_problem();
  design::TrackAssignment adjacent;
  adjacent.order = {0, 3, 1, 2};  // hot pair adjacent
  adjacent.shield_after.assign(4, false);
  EXPECT_TRUE(is_feasible(p, adjacent));  // bounds default to inf
  p.cap_noise_bound = 5.0;  // victim 3 receives 6.0 capacitively from net 0
  EXPECT_FALSE(is_feasible(p, adjacent));
}

TEST(ShieldOptimizer, SolversRespectNoiseBounds) {
  auto p = bounded_problem();
  p.cap_noise_bound = 5.0;  // forbids net 0 adjacent to net 3 unshielded
  for (const auto& t : {design::solve_greedy(p),
                        design::solve_annealing(p, 5, 20000),
                        design::solve_exhaustive(p)}) {
    EXPECT_TRUE(is_feasible(p, t))
        << "cost " << design::evaluate_cost(p, t);
  }
}

TEST(ShieldOptimizer, PenaltyMakesInfeasibleExpensive) {
  auto p = bounded_problem();
  p.cap_noise_bound = 5.0;
  design::TrackAssignment bad;
  bad.order = {0, 3, 1, 2};
  bad.shield_after.assign(4, false);
  design::TrackAssignment good = design::solve_exhaustive(p);
  EXPECT_GT(design::evaluate_cost(p, bad),
            design::evaluate_cost(p, good) + p.bound_penalty * 0.5);
}

}  // namespace

// ---------------------------------------------------------------------------
// Inductance-significance screen (reference [1]) and Elmore delay.
// ---------------------------------------------------------------------------

#include "design/significance.hpp"

namespace {

geom::Layout shielded_line_of(double len) {
  geom::Layout l(geom::default_tech());
  const int sig = l.add_net("sig", geom::NetKind::Signal);
  const int gnd = l.add_net("gnd", geom::NetKind::Ground);
  l.add_wire(sig, 6, {0, 0}, {len, 0}, um(2));
  l.add_wire(gnd, 6, {0, um(6)}, {len, um(6)}, um(3));
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

TEST(Significance, LineParametersAreSane) {
  const geom::Layout l = shielded_line_of(um(1000));
  loop::LoopExtractionOptions opts;
  opts.max_segment_length = um(250);
  const auto p =
      design::extract_line_parameters(l, l.find_net("sig"), 2e9, opts);
  EXPECT_NEAR(p.length, um(1000), 1e-9);
  // On-chip orders of magnitude: R' ~ 1e4 ohm/m, L' ~ 1e-6 H/m (1 nH/mm),
  // C' ~ 1e-10 F/m (100 aF/um), Z0 tens of ohms.
  EXPECT_GT(p.r_per_m, 1e3);
  EXPECT_LT(p.r_per_m, 1e6);
  EXPECT_GT(p.l_per_m, 1e-8);
  EXPECT_LT(p.l_per_m, 1e-5);
  EXPECT_GT(p.c_per_m, 1e-11);
  EXPECT_LT(p.c_per_m, 1e-9);
  const double z0 = std::sqrt(p.l_per_m / p.c_per_m);
  EXPECT_GT(z0, 10.0);
  EXPECT_LT(z0, 500.0);
}

TEST(Significance, WindowBehaviour) {
  design::LineParameters line;
  line.r_per_m = 1e4;     // 10 ohm/mm
  line.l_per_m = 1e-6;    // 1 nH/mm
  line.c_per_m = 2e-10;   // 200 aF/um
  line.length = 2e-3;     // 2 mm
  const auto rep = design::inductance_significance(line, 30e-12);
  // lower = t_r / (2 sqrt(L'C')) ~ 1.06 mm; upper = 2/R' sqrt(L'/C') ~ 14 mm.
  EXPECT_NEAR(rep.lower_bound, 30e-12 / (2 * std::sqrt(2e-16)), 1e-6);
  EXPECT_NEAR(rep.upper_bound, 2e-4 * std::sqrt(5e3), 1e-4);
  EXPECT_TRUE(rep.inductance_significant);

  line.length = 0.2e-3;  // too short: edge hides the flight time
  EXPECT_FALSE(design::inductance_significance(line, 30e-12)
                   .inductance_significant);
  line.length = 30e-3;  // too long: attenuation dominates
  EXPECT_FALSE(design::inductance_significance(line, 30e-12)
                   .inductance_significant);
}

TEST(Significance, FasterEdgesWidenTheWindow) {
  design::LineParameters line;
  line.r_per_m = 1e4;
  line.l_per_m = 1e-6;
  line.c_per_m = 2e-10;
  line.length = 1e-3;
  const auto slow = design::inductance_significance(line, 100e-12);
  const auto fast = design::inductance_significance(line, 10e-12);
  EXPECT_LT(fast.lower_bound, slow.lower_bound);
  EXPECT_DOUBLE_EQ(fast.upper_bound, slow.upper_bound);  // R-limited side
}

TEST(Significance, ElmoreDelayMatchesHandComputation) {
  design::LineParameters line;
  line.r_per_m = 1e4;
  line.c_per_m = 1e-10;
  line.l_per_m = 1e-6;
  line.length = 1e-3;  // R_line = 10 ohm, C_line = 100 fF
  // t = 30*(100f+20f) + 10*(50f+20f) = 3.6ps + 0.7ps
  EXPECT_NEAR(design::elmore_delay(line, 30.0, 20e-15), 4.3e-12, 1e-15);
}

TEST(Significance, RejectsDegenerateLines) {
  design::LineParameters bad;
  bad.length = 1e-3;
  EXPECT_THROW(design::inductance_significance(bad, 1e-11),
               std::invalid_argument);
  geom::Layout l(geom::default_tech());
  l.add_net("empty", geom::NetKind::Signal);
  EXPECT_THROW(design::extract_line_parameters(l, 0), std::exception);
}

}  // namespace
