// Tests for the numerical-robustness layer: structured SolveReports, the
// solver fallback ladder, deterministic fault injection, and the input
// validation front door. Every suite is named Robust* so the CI fault
// injection step can target the whole layer with `ctest -R Robust`.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "circuit/ac.hpp"
#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "circuit/transient.hpp"
#include "geom/layer.hpp"
#include "geom/layout.hpp"
#include "geom/layout_io.hpp"
#include "peec/model_builder.hpp"
#include "la/lu.hpp"
#include "la/sparse.hpp"
#include "la/sparse_lu.hpp"
#include "loop/ladder_fit.hpp"
#include "mna_system.hpp"
#include "mor/prima.hpp"
#include "robust/diagnostics.hpp"
#include "robust/fault_injection.hpp"
#include "robust/recovery.hpp"
#include "robust/validate.hpp"
#include "runtime/metrics.hpp"
#include "spice_import.hpp"

namespace {

using namespace ind;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Pwl;
using robust::RecoveryKind;
using robust::SolveReport;
using robust::SolveStatus;
namespace fault = robust::fault;

bool has_action(const SolveReport& r, RecoveryKind kind) {
  for (const auto& a : r.actions)
    if (a.kind == kind) return true;
  return false;
}

// Clears any injection spec around every test so suites cannot leak faults
// into each other.
class RobustTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }
};

using RobustFault = RobustTest;
using RobustDense = RobustTest;
using RobustSparse = RobustTest;
using RobustTransient = RobustTest;
using RobustAc = RobustTest;
using RobustPrima = RobustTest;
using RobustLadder = RobustTest;
using RobustValidate = RobustTest;
using RobustReport = RobustTest;

// ---------------------------------------------------------------------------
// Fault-injection plumbing.
// ---------------------------------------------------------------------------

TEST_F(RobustFault, SpecGrammar) {
  EXPECT_NO_THROW(
      fault::configure("dense_lu_pivot@0;transient_step@1,3-5;krylov_block@*"));
  EXPECT_NO_THROW(fault::configure("sparse_lu_pivot@2"));
  EXPECT_NO_THROW(fault::configure("ladder_jacobian@0-3"));
  EXPECT_THROW(fault::configure("bogus_site@1"), std::invalid_argument);
  EXPECT_THROW(fault::configure("dense_lu_pivot@x"), std::invalid_argument);
  EXPECT_THROW(fault::configure("dense_lu_pivot"), std::invalid_argument);
}

TEST_F(RobustFault, FiresAtSelectedIndicesOnly) {
  fault::configure("dense_lu_pivot@1,3");
  EXPECT_FALSE(fault::fire(fault::Site::DenseLuPivot));  // call 0
  EXPECT_TRUE(fault::fire(fault::Site::DenseLuPivot));   // call 1
  EXPECT_FALSE(fault::fire(fault::Site::DenseLuPivot));  // call 2
  EXPECT_TRUE(fault::fire(fault::Site::DenseLuPivot));   // call 3
  EXPECT_EQ(fault::calls(fault::Site::DenseLuPivot), 4);
  EXPECT_EQ(fault::fired(fault::Site::DenseLuPivot), 2);
  // Other sites are untouched.
  EXPECT_EQ(fault::calls(fault::Site::TransientStep), 0);
}

TEST_F(RobustFault, InactiveIsANoOp) {
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::fire(fault::Site::DenseLuPivot));
  EXPECT_EQ(fault::calls(fault::Site::DenseLuPivot), 0);
}

// ---------------------------------------------------------------------------
// Dense fallback ladder.
// ---------------------------------------------------------------------------

// A diagonally dominant G + jB system, the shape the AC engine factors.
la::CMatrix ac3() {
  la::CMatrix a(3, 3);
  a(0, 0) = {4.0, 1.0}; a(0, 1) = 1.0;        a(0, 2) = 0.0;
  a(1, 0) = 1.0;        a(1, 1) = {3.0, 2.0}; a(1, 2) = 1.0;
  a(2, 0) = 0.0;        a(2, 1) = 1.0;        a(2, 2) = {5.0, -1.0};
  return a;
}

const la::CVector kRhs3{{1.0, 0.0}, {2.0, -1.0}, {3.0, 0.5}};

TEST_F(RobustDense, CleanSolveReportsOk) {
  SolveReport report;
  const la::CLU lu = robust::factor_dense_with_recovery(ac3(), report, "test");
  ASSERT_GT(lu.size(), 0u);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.actions.empty());
  EXPECT_GT(report.condition_estimate, 0.0);
  EXPECT_GT(report.pivot_growth, 0.0);
  // Same pivots as the raw factorisation: bitwise-identical solve.
  const la::CVector x = lu.solve(kRhs3);
  const la::CVector x0 = la::CLU(ac3()).solve(kRhs3);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(x[i], x0[i]);
}

TEST_F(RobustDense, SingleInjectedFaultRecoversBitwise) {
  const la::CVector x0 = la::CLU(ac3()).solve(kRhs3);

  fault::configure("dense_lu_pivot@0");
  SolveReport report;
  const la::CLU lu = robust::factor_dense_with_recovery(ac3(), report, "test");
  ASSERT_GT(lu.size(), 0u);
  EXPECT_EQ(report.status, SolveStatus::Recovered);
  EXPECT_TRUE(has_action(report, RecoveryKind::Retry));
  EXPECT_FALSE(has_action(report, RecoveryKind::GminRegularization));
  const la::CVector x = lu.solve(kRhs3);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(x[i], x0[i]);
}

TEST_F(RobustDense, ConsecutiveFaultsEscalateToGmin) {
  fault::configure("dense_lu_pivot@0,1");
  SolveReport report;
  const la::CLU lu = robust::factor_dense_with_recovery(ac3(), report, "test");
  ASSERT_GT(lu.size(), 0u);
  EXPECT_TRUE(report.usable());
  EXPECT_TRUE(has_action(report, RecoveryKind::GminRegularization));
  // gmin = 1e-9 on an O(1) diagonal: the answer moves by O(1e-9) at most.
  const la::CVector x = lu.solve(kRhs3);
  const la::CVector x0 = la::CLU(ac3()).solve(kRhs3);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(std::abs(x[i] - x0[i]), 0.0, 1e-6);
}

TEST_F(RobustDense, SingularMatrixRescuedByGmin) {
  la::CMatrix zero(2, 2);  // the most singular matrix there is
  SolveReport report;
  const la::CLU lu = robust::factor_dense_with_recovery(zero, report, "test");
  ASSERT_GT(lu.size(), 0u);
  EXPECT_EQ(report.status, SolveStatus::Recovered);
  EXPECT_TRUE(has_action(report, RecoveryKind::GminRegularization));
  // zero + gmin I solves to b / gmin.
  const la::CVector rhs{robust::kGminLevels[0], 0.0};
  const la::CVector x = lu.solve(rhs);
  EXPECT_NEAR(std::abs(x[0] - 1.0), 0.0, 1e-9);
}

TEST_F(RobustDense, ExhaustedLadderFailsStructurally) {
  fault::configure("dense_lu_pivot@*");
  SolveReport report;
  const la::CLU lu = robust::factor_dense_with_recovery(ac3(), report, "test");
  EXPECT_EQ(lu.size(), 0u);
  EXPECT_TRUE(report.failed());
  EXPECT_FALSE(report.detail.empty());
}

// ---------------------------------------------------------------------------
// Sparse fallback ladder.
// ---------------------------------------------------------------------------

la::CscMatrix tridiag(std::size_t n) {
  la::TripletMatrix t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 4.0);
    if (i + 1 < n) {
      t.add(i, i + 1, -1.0);
      t.add(i + 1, i, -1.0);
    }
  }
  return la::CscMatrix(t);
}

TEST_F(RobustSparse, SingleInjectedFaultRecoversBitwise) {
  const la::CscMatrix a = tridiag(6);
  la::Vector b(6, 1.0);
  const la::Vector x0 = la::SparseLu(a).solve(b);

  fault::configure("sparse_lu_pivot@0");
  SolveReport report;
  const auto factor = robust::factor_sparse_with_recovery(a, report, "test");
  ASSERT_TRUE(factor.usable());
  EXPECT_NE(factor.sparse, nullptr);
  EXPECT_TRUE(has_action(report, RecoveryKind::Retry));
  const la::Vector x = factor.solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(x[i], x0[i]);
}

TEST_F(RobustSparse, ConsecutiveFaultsFallBackToDense) {
  const la::CscMatrix a = tridiag(6);
  la::Vector b(6, 1.0);
  const la::Vector x0 = la::SparseLu(a).solve(b);

  fault::configure("sparse_lu_pivot@0,1");
  SolveReport report;
  const auto factor = robust::factor_sparse_with_recovery(a, report, "test");
  ASSERT_TRUE(factor.usable());
  EXPECT_NE(factor.dense, nullptr);
  EXPECT_TRUE(has_action(report, RecoveryKind::DenseFallback));
  EXPECT_GT(report.condition_estimate, 0.0);
  const la::Vector x = factor.solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x0[i], 1e-12);
}

// ---------------------------------------------------------------------------
// Transient engine recovery.
// ---------------------------------------------------------------------------

Netlist rc_line(NodeId& out) {
  Netlist nl;
  const NodeId in = nl.node("in");
  nl.add_vsource(in, kGround, Pwl({{0.0, 0.0}, {5e-12, 1.0}}));
  NodeId prev = in;
  for (int k = 0; k < 4; ++k) {
    const NodeId next = nl.make_node();
    nl.add_resistor(prev, next, 50.0);
    nl.add_capacitor(next, kGround, 20e-15);
    prev = next;
  }
  out = prev;
  return nl;
}

circuit::TransientOptions rc_opts() {
  circuit::TransientOptions opts;
  opts.t_stop = 50e-12;
  opts.dt = 1e-12;
  return opts;
}

TEST_F(RobustTransient, CleanRunReportsOk) {
  NodeId out;
  const Netlist nl = rc_line(out);
  const auto res = circuit::transient(
      nl, {{circuit::ProbeKind::NodeVoltage,
            static_cast<std::size_t>(out), "v"}}, rc_opts());
  EXPECT_TRUE(res.report.ok());
  EXPECT_TRUE(res.report.actions.empty());
  EXPECT_GT(res.report.condition_estimate, 0.0);
  EXPECT_GT(res.samples[0].back(), 0.5);
}

TEST_F(RobustTransient, SingleInjectedStepRecoversBitwise) {
  NodeId out;
  const Netlist nl = rc_line(out);
  const std::vector<circuit::Probe> probes{
      {circuit::ProbeKind::NodeVoltage, static_cast<std::size_t>(out), "v"}};
  const auto base = circuit::transient(nl, probes, rc_opts());

  fault::configure("transient_step@0");
  const auto res = circuit::transient(nl, probes, rc_opts());
  EXPECT_EQ(res.report.status, SolveStatus::Recovered);
  EXPECT_TRUE(has_action(res.report, RecoveryKind::Retry));
  EXPECT_FALSE(has_action(res.report, RecoveryKind::DtHalving));
  ASSERT_EQ(res.samples[0].size(), base.samples[0].size());
  for (std::size_t i = 0; i < base.samples[0].size(); ++i)
    EXPECT_EQ(res.samples[0][i], base.samples[0][i]) << "sample " << i;
}

TEST_F(RobustTransient, ConsecutiveFaultsTriggerDtHalving) {
  NodeId out;
  const Netlist nl = rc_line(out);
  const std::vector<circuit::Probe> probes{
      {circuit::ProbeKind::NodeVoltage, static_cast<std::size_t>(out), "v"}};
  const auto base = circuit::transient(nl, probes, rc_opts());

  fault::configure("transient_step@0,1");
  const auto res = circuit::transient(nl, probes, rc_opts());
  EXPECT_TRUE(res.report.usable());
  EXPECT_TRUE(has_action(res.report, RecoveryKind::DtHalving));
  ASSERT_EQ(res.samples[0].size(), base.samples[0].size());
  // One step was re-integrated with backward-Euler substeps: close, not
  // bitwise.
  EXPECT_NEAR(res.samples[0].back(), base.samples[0].back(),
              0.05 * std::abs(base.samples[0].back()) + 1e-6);
}

TEST_F(RobustTransient, PersistentFaultFailsWithStructuredReport) {
  NodeId out;
  const Netlist nl = rc_line(out);
  fault::configure("transient_step@*");
  const auto res = circuit::transient(
      nl, {{circuit::ProbeKind::NodeVoltage,
            static_cast<std::size_t>(out), "v"}}, rc_opts());
  // No abort, no throw: a Failed report and the prefix computed so far.
  EXPECT_TRUE(res.report.failed());
  EXPECT_FALSE(res.report.detail.empty());
  EXPECT_LT(res.time.size(), 51u);
}

// ---------------------------------------------------------------------------
// AC engine recovery.
// ---------------------------------------------------------------------------

TEST_F(RobustAc, CleanSolveReportsResidual) {
  NodeId out;
  const Netlist nl = rc_line(out);
  const auto res = circuit::ac_sweep(nl, {}, {2.0 * M_PI * 1e9})[0];
  EXPECT_TRUE(res.report.ok());
  EXPECT_GE(res.report.residual_norm, 0.0);
  EXPECT_LT(res.report.residual_norm, 1e-10);
  EXPECT_GT(res.report.condition_estimate, 0.0);
}

TEST_F(RobustAc, InjectedPivotRecoversBitwise) {
  NodeId out;
  const Netlist nl = rc_line(out);
  const double w = 2.0 * M_PI * 1e9;
  const auto base = circuit::ac_sweep(nl, {}, {w})[0];

  fault::configure("sparse_lu_pivot@0");
  const auto res = circuit::ac_sweep(nl, {}, {w})[0];
  EXPECT_EQ(res.report.status, SolveStatus::Recovered);
  EXPECT_TRUE(has_action(res.report, RecoveryKind::Retry));
  ASSERT_EQ(res.x.size(), base.x.size());
  for (std::size_t i = 0; i < base.x.size(); ++i)
    EXPECT_EQ(res.x[i], base.x[i]);
}

// ---------------------------------------------------------------------------
// PRIMA Krylov recovery.
// ---------------------------------------------------------------------------

struct PrimaSystem {
  la::CscMatrix g, c;
  la::Matrix b, l;
};

PrimaSystem prima_system() {
  NodeId out;
  const Netlist nl = rc_line(out);
  const test::MnaSystem sys = test::stamp_mna(nl);
  const circuit::Mna mna(nl);
  PrimaSystem s{sys.g, sys.c, la::Matrix(sys.g.rows(), 1),
                la::Matrix(sys.g.rows(), 1)};
  s.b(mna.vsource_branch(0), 0) = 1.0;
  s.l(static_cast<std::size_t>(out), 0) = 1.0;
  return s;
}

// The same line with a series inductor per stage, so G + s0 C has
// inductor-branch rows (the rows prima_reduce scales before factoring).
PrimaSystem rlc_prima_system() {
  Netlist nl;
  const NodeId in = nl.node("in");
  nl.add_vsource(in, kGround, Pwl({{0.0, 0.0}, {5e-12, 1.0}}));
  NodeId prev = in;
  for (int k = 0; k < 4; ++k) {
    const NodeId mid = nl.make_node();
    const NodeId next = nl.make_node();
    nl.add_resistor(prev, mid, 50.0);
    nl.add_inductor(mid, next, 1e-10);
    nl.add_capacitor(next, kGround, 20e-15);
    prev = next;
  }
  const test::MnaSystem sys = test::stamp_mna(nl);
  const circuit::Mna mna(nl);
  PrimaSystem s{sys.g, sys.c, la::Matrix(sys.g.rows(), 1),
                la::Matrix(sys.g.rows(), 1)};
  s.b(mna.vsource_branch(0), 0) = 1.0;
  s.l(static_cast<std::size_t>(prev), 0) = 1.0;
  return s;
}

TEST_F(RobustPrima, CleanReductionReportsOk) {
  const PrimaSystem s = prima_system();
  mor::PrimaOptions opts;
  opts.max_order = 4;
  const auto red = mor::prima_reduce(s.g, s.c, s.b, s.l, opts);
  EXPECT_TRUE(red.report.ok());
  EXPECT_GT(red.report.condition_estimate, 0.0);
}

void expect_bitwise_equal(const la::Matrix& a, const la::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) EXPECT_EQ(a(i, j), b(i, j));
}

TEST_F(RobustPrima, InjectedSparsePivotRetriesBitwise) {
  const PrimaSystem s = rlc_prima_system();
  mor::PrimaOptions opts;
  opts.max_order = 4;
  const auto base = mor::prima_reduce(s.g, s.c, s.b, s.l, opts);

  fault::configure("sparse_lu_pivot@0");
  const auto red = mor::prima_reduce(s.g, s.c, s.b, s.l, opts);
  EXPECT_EQ(red.report.status, SolveStatus::Recovered);
  EXPECT_TRUE(has_action(red.report, RecoveryKind::Retry));
  EXPECT_FALSE(has_action(red.report, RecoveryKind::DenseFallback));
  expect_bitwise_equal(red.g, base.g);
  expect_bitwise_equal(red.c, base.c);
  expect_bitwise_equal(red.b, base.b);
  expect_bitwise_equal(red.l, base.l);
  expect_bitwise_equal(red.v, base.v);
}

TEST_F(RobustPrima, PersistentSparsePivotFaultsReachDenseFallback) {
  const PrimaSystem s = rlc_prima_system();
  mor::PrimaOptions opts;
  opts.max_order = 4;
  const auto base = mor::prima_reduce(s.g, s.c, s.b, s.l, opts);

  // Both sparse attempts fail; the dense-LU rung factors the row-scaled
  // G + s0 C.
  fault::configure("sparse_lu_pivot@0,1");
  const auto red = mor::prima_reduce(s.g, s.c, s.b, s.l, opts);
  EXPECT_TRUE(red.report.usable());
  EXPECT_TRUE(has_action(red.report, RecoveryKind::DenseFallback));
  EXPECT_GT(red.report.condition_estimate, 0.0);
  ASSERT_EQ(red.order(), base.order());
  for (std::size_t i = 0; i < red.g.rows(); ++i)
    for (std::size_t j = 0; j < red.g.cols(); ++j)
      EXPECT_NEAR(red.g(i, j), base.g(i, j), 1e-9 * std::abs(base.g(0, 0)));
}

TEST_F(RobustPrima, SingleInjectedBlockRecoversIdentically) {
  const PrimaSystem s = prima_system();
  mor::PrimaOptions opts;
  opts.max_order = 4;
  const auto base = mor::prima_reduce(s.g, s.c, s.b, s.l, opts);

  fault::configure("krylov_block@0");
  const auto red = mor::prima_reduce(s.g, s.c, s.b, s.l, opts);
  EXPECT_EQ(red.report.status, SolveStatus::Recovered);
  EXPECT_TRUE(has_action(red.report, RecoveryKind::Retry));
  EXPECT_FALSE(has_action(red.report, RecoveryKind::KrylovDeflation));
  ASSERT_EQ(red.order(), base.order());
  for (std::size_t i = 0; i < red.g.rows(); ++i)
    for (std::size_t j = 0; j < red.g.cols(); ++j)
      EXPECT_EQ(red.g(i, j), base.g(i, j));
}

TEST_F(RobustPrima, PersistentBreakdownDeflatesAndTruncates) {
  const PrimaSystem s = prima_system();
  mor::PrimaOptions opts;
  opts.max_order = 6;
  // First block clean (call 0); the second block breaks down on both its
  // guard check (call 1) and its retry (call 2), so it deflates away and
  // the reduction stops at the first block's order.
  fault::configure("krylov_block@1,2");
  const auto red = mor::prima_reduce(s.g, s.c, s.b, s.l, opts);
  EXPECT_TRUE(red.report.usable());
  EXPECT_TRUE(has_action(red.report, RecoveryKind::KrylovDeflation));
  EXPECT_GE(red.order(), 1u);
  EXPECT_LT(red.order(), 6u);
}

TEST_F(RobustPrima, UnrecoverableFirstBlockThrows) {
  const PrimaSystem s = prima_system();
  fault::configure("krylov_block@*");
  EXPECT_THROW(mor::prima_reduce(s.g, s.c, s.b, s.l, {}),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Ladder-fit recovery.
// ---------------------------------------------------------------------------

loop::LoopImpedance sample_ladder(const loop::LadderModel& m, double f) {
  const double w = 2.0 * M_PI * f;
  return {f, m.resistance(w), m.inductance(w)};
}

loop::LadderModel ground_truth() {
  loop::LadderModel gt;
  gt.r0 = 1.0;
  gt.l0 = 1e-9;
  gt.r1 = 2.0;
  gt.l1 = 2e-9;
  return gt;
}

TEST_F(RobustLadder, CleanFitReportsOk) {
  const loop::LadderModel gt = ground_truth();
  const auto fit = loop::fit_ladder(sample_ladder(gt, 1e8),
                                    sample_ladder(gt, 3e9));
  EXPECT_TRUE(fit.report.ok());
  EXPECT_NEAR(fit.r1, gt.r1, 1e-3 * gt.r1);
  EXPECT_NEAR(fit.l1, gt.l1, 1e-3 * gt.l1);
}

TEST_F(RobustLadder, InjectedSingularJacobianDampedRestart) {
  const loop::LadderModel gt = ground_truth();
  fault::configure("ladder_jacobian@0");
  const auto fit = loop::fit_ladder(sample_ladder(gt, 1e8),
                                    sample_ladder(gt, 3e9));
  EXPECT_EQ(fit.report.status, SolveStatus::Recovered);
  EXPECT_TRUE(has_action(fit.report, RecoveryKind::DampedRestart));
  // The damped first step still converges to the same branch.
  EXPECT_NEAR(fit.r1, gt.r1, 1e-3 * gt.r1);
  EXPECT_NEAR(fit.l1, gt.l1, 1e-3 * gt.l1);
}

TEST_F(RobustLadder, NanInputSurfacesAsNonConverged) {
  loop::LoopImpedance lo = sample_ladder(ground_truth(), 1e8);
  loop::LoopImpedance hi = sample_ladder(ground_truth(), 3e9);
  lo.resistance = std::nan("");
  // Previously this path ended in a silent `break` and returned NaN element
  // values as a "converged" fit.
  const auto fit = loop::fit_ladder(lo, hi);
  EXPECT_EQ(fit.report.status, SolveStatus::NonConverged);
  EXPECT_FALSE(fit.report.detail.empty());
  EXPECT_FALSE(fit.has_parallel_branch());
}

TEST_F(RobustLadder, MultiFitInjectedJacobianRestarts) {
  const loop::LadderModel gt = ground_truth();
  std::vector<loop::LoopImpedance> sweep;
  for (double f : {1e8, 3e8, 1e9, 3e9, 1e10})
    sweep.push_back(sample_ladder(gt, f));
  fault::configure("ladder_jacobian@0");
  const auto fit = loop::fit_ladder_multi(sweep, 1);
  EXPECT_TRUE(fit.report.usable());
  EXPECT_TRUE(has_action(fit.report, RecoveryKind::DampedRestart));
  EXPECT_TRUE(std::isfinite(fit.r0));
  EXPECT_TRUE(std::isfinite(fit.l0));
}

// ---------------------------------------------------------------------------
// Input validation front door.
// ---------------------------------------------------------------------------

TEST_F(RobustValidate, NetlistFloatingAndCapacitorOnlyNodes) {
  Netlist nl;
  nl.node("floating");                             // never connected
  nl.add_capacitor(nl.node("a"), kGround, 1e-12);  // capacitor-only node
  nl.add_resistor(nl.node("b"), kGround, 5.0);
  const auto report = robust::validate(nl);
  EXPECT_TRUE(report.has_errors());
  bool saw_floating = false, saw_cap_only = false;
  for (const auto& i : report.issues) {
    saw_floating |= i.code == "floating-node";
    saw_cap_only |= i.code == "no-dc-path" &&
                    i.severity == robust::Severity::Warning;
  }
  EXPECT_TRUE(saw_floating);
  EXPECT_TRUE(saw_cap_only);
  EXPECT_GE(report.warning_count(), 1u);
  EXPECT_NE(report.summary().find("error ["), std::string::npos);
}

TEST_F(RobustValidate, NetlistOverUnityCouplingNamesBothInductors) {
  Netlist nl;
  const NodeId a = nl.node("a"), b = nl.node("b");
  const std::size_t l0 = nl.add_inductor(a, kGround, 1e-9);
  const std::size_t l1 = nl.add_inductor(b, kGround, 1e-9);
  nl.add_resistor(a, kGround, 1.0);
  nl.add_resistor(b, kGround, 1.0);
  nl.add_mutual(l0, l1, 2e-9);  // |k| = 2
  const auto report = robust::validate(nl);
  ASSERT_TRUE(report.has_errors());
  bool saw = false;
  for (const auto& i : report.issues) {
    if (i.code != "k-over-unity") continue;
    saw = true;
    EXPECT_NE(i.location.find("0"), std::string::npos);
    EXPECT_NE(i.location.find("1"), std::string::npos);
  }
  EXPECT_TRUE(saw);
}

TEST_F(RobustValidate, LayoutZeroLengthAndShort) {
  geom::Layout layout(geom::default_tech());
  const int sig = layout.add_net("sig", geom::NetKind::Signal);
  const int agg = layout.add_net("agg", geom::NetKind::Signal);
  layout.add_wire(sig, 2, {0.0, 0.0}, {0.0, 0.0}, 1e-6);  // zero length
  // Two overlapping cross-net wires on one layer: a short.
  layout.add_wire(sig, 3, {0.0, 0.0}, {10e-6, 0.0}, 1e-6);
  layout.add_wire(agg, 3, {5e-6, 0.0}, {15e-6, 0.0}, 1e-6);
  const auto report = robust::validate(layout);
  EXPECT_TRUE(report.has_errors());
  bool saw_len = false, saw_short = false;
  for (const auto& i : report.issues) {
    saw_len |= i.code == "zero-length-wire";
    saw_short |= i.code == "layout-short";
  }
  EXPECT_TRUE(saw_len);
  EXPECT_TRUE(saw_short);
}

TEST_F(RobustValidate, SpiceImportErrorsCarryLineNumbers) {
  try {
    circuit::parse_spice("V1 in 0 1\nR1 in 0\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  // Continuation lines report the line the card began on.
  try {
    circuit::parse_spice("*c\nR1 in 0\n+ banana\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST_F(RobustValidate, SpiceImportRejectsOverUnityKCard) {
  try {
    circuit::parse_spice("L1 a 0 1n\nL2 b 0 1n\nK1 L1 L2 1.5\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("exceeds 1"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
  // |k| = 1 is the legal boundary.
  EXPECT_NO_THROW(
      circuit::parse_spice("L1 a 0 1n\nL2 b 0 1n\nK1 L1 L2 1.0\n"));
}

TEST_F(RobustValidate, SpiceImportFillsValidationReport) {
  const auto good = circuit::parse_spice(
      "V1 in 0 1\nR1 in out 50\nC1 out 0 1p\n");
  EXPECT_FALSE(good.validation.has_errors());

  // A current source into a node with no conductive return path.
  const auto bad = circuit::parse_spice("I1 x 0 1m\n");
  EXPECT_TRUE(bad.validation.has_errors());
  bool saw = false;
  for (const auto& i : bad.validation.issues) saw |= i.code == "no-dc-path";
  EXPECT_TRUE(saw);
}

TEST_F(RobustValidate, ReadLayoutRejectsZeroWidthWithLineNumber) {
  try {
    geom::layout_from_text("net a signal\nwire a 2 0 0 1 0 0\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("width"), std::string::npos) << what;
  }
}

TEST_F(RobustValidate, ReadLayoutValidationOverload) {
  std::istringstream is("net a signal\nwire a 2 0 0 10 0 1\n");
  robust::ValidationReport report;
  const geom::Layout layout = geom::read_layout(is, &report);
  EXPECT_EQ(layout.segments().size(), 1u);
  EXPECT_FALSE(report.has_errors());
}

TEST_F(RobustValidate, PeecBuilderRejectsInvalidLayoutWithSummary) {
  geom::Layout layout(geom::default_tech());
  const int sig = layout.add_net("sig", geom::NetKind::Signal);
  const int agg = layout.add_net("agg", geom::NetKind::Signal);
  layout.add_wire(sig, 3, {0.0, 0.0}, {10e-6, 0.0}, 1e-6);
  layout.add_wire(agg, 3, {5e-6, 0.0}, {15e-6, 0.0}, 1e-6);
  try {
    peec::build_peec_model(layout, {});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("layout-short"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// SolveReport mechanics and metrics integration.
// ---------------------------------------------------------------------------

TEST_F(RobustReport, StatusOnlyEscalates) {
  SolveReport r;
  r.raise_status(SolveStatus::Recovered);
  r.raise_status(SolveStatus::Ok);
  EXPECT_EQ(r.status, SolveStatus::Recovered);
  r.raise_status(SolveStatus::Failed);
  r.raise_status(SolveStatus::NonConverged);
  EXPECT_EQ(r.status, SolveStatus::Failed);
}

TEST_F(RobustReport, AddActionImpliesRecovered) {
  SolveReport r;
  r.add_action(RecoveryKind::GminRegularization, 1, 1e-9, "here");
  EXPECT_EQ(r.status, SolveStatus::Recovered);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.usable());
}

TEST_F(RobustReport, MergeKeepsWorstAndAppends) {
  SolveReport a, b;
  a.condition_estimate = 10.0;
  b.condition_estimate = 100.0;
  b.add_action(RecoveryKind::Retry, 0, 0.0, "sub");
  b.raise_status(SolveStatus::NonConverged);
  a.merge(b);
  EXPECT_EQ(a.status, SolveStatus::NonConverged);
  EXPECT_EQ(a.actions.size(), 1u);
  EXPECT_DOUBLE_EQ(a.condition_estimate, 100.0);
}

TEST_F(RobustReport, ToJsonCarriesStatusAndActions) {
  SolveReport r;
  r.add_action(RecoveryKind::DtHalving, 1, 5e-13, "transient step 3");
  r.condition_estimate = 1e6;
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"recovered\""), std::string::npos) << json;
  EXPECT_NE(json.find("dt_halve"), std::string::npos) << json;
}

TEST_F(RobustReport, RecordPublishesMetricsCounters) {
  auto& metrics = runtime::MetricsRegistry::instance();
  const auto solves_before =
      metrics.counter("robust.testsite.solves").value.load();
  SolveReport r;
  r.add_action(RecoveryKind::Retry, 0, 0.0, "testsite");
  r.condition_estimate = 1e8;
  r.record("testsite");
  EXPECT_EQ(metrics.counter("robust.testsite.solves").value.load(),
            solves_before + 1);
  EXPECT_GE(metrics.counter("robust.testsite.recovered").value.load(), 1);
  EXPECT_GE(metrics.counter("robust.action.retry").value.load(), 1);
  EXPECT_GE(metrics.counter("robust.testsite.max_log10_cond").value.load(), 8);
}

}  // namespace

// ---------------------------------------------------------------------------
// Guarded numeric-only refactorisation (symbolic reuse through the ladder).
// ---------------------------------------------------------------------------

namespace {

la::CscMatrix tridiag_scaled(std::size_t n, double diag) {
  la::TripletMatrix t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, diag);
    if (i + 1 < n) {
      t.add(i, i + 1, -1.0);
      t.add(i + 1, i, -1.0);
    }
  }
  return la::CscMatrix(t);
}

TEST_F(RobustSparse, RefactorReusesPatternBitwise) {
  const la::CscMatrix a0 = tridiag_scaled(6, 4.0);
  const la::CscMatrix a1 = tridiag_scaled(6, 7.5);  // same pattern
  la::Vector b(6, 1.0);

  SolveReport report;
  auto factor = robust::factor_sparse_with_recovery(a0, report, "test");
  ASSERT_NE(factor.sparse, nullptr);

  auto& metrics = runtime::MetricsRegistry::instance();
  const auto refactors_before =
      metrics.counter("factor.sparse_lu.refactors").value.load();
  robust::refactor_sparse_with_recovery(factor, a1, report, "test");
  ASSERT_NE(factor.sparse, nullptr);
  EXPECT_EQ(metrics.counter("factor.sparse_lu.refactors").value.load(),
            refactors_before + 1);

  const la::Vector x = factor.solve(b);
  const la::Vector x0 = la::SparseLu(a1).solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(x[i], x0[i]);
}

TEST_F(RobustSparse, RefactorInjectedFaultRetriesBitwise) {
  const la::CscMatrix a0 = tridiag_scaled(6, 4.0);
  const la::CscMatrix a1 = tridiag_scaled(6, 5.0);
  la::Vector b(6, 1.0);

  SolveReport report;
  auto factor = robust::factor_sparse_with_recovery(a0, report, "test");
  ASSERT_NE(factor.sparse, nullptr);

  fault::configure("sparse_lu_pivot@0");
  robust::refactor_sparse_with_recovery(factor, a1, report, "test");
  ASSERT_NE(factor.sparse, nullptr);
  EXPECT_TRUE(has_action(report, RecoveryKind::Retry));
  const la::Vector x = factor.solve(b);
  const la::Vector x0 = la::SparseLu(a1).solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(x[i], x0[i]);
}

TEST_F(RobustSparse, RefactorConsecutiveFaultsFallBackToDense) {
  const la::CscMatrix a0 = tridiag_scaled(6, 4.0);
  const la::CscMatrix a1 = tridiag_scaled(6, 5.0);
  la::Vector b(6, 1.0);

  SolveReport report;
  auto factor = robust::factor_sparse_with_recovery(a0, report, "test");
  ASSERT_NE(factor.sparse, nullptr);

  fault::configure("sparse_lu_pivot@0,1");
  robust::refactor_sparse_with_recovery(factor, a1, report, "test");
  ASSERT_TRUE(factor.usable());
  EXPECT_NE(factor.dense, nullptr);
  EXPECT_TRUE(has_action(report, RecoveryKind::DenseFallback));
  const la::Vector x = factor.solve(b);
  const la::Vector x0 = la::SparseLu(a1).solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x0[i], 1e-12);
}

TEST_F(RobustSparse, RefactorEnvGateForcesFromScratch) {
  const la::CscMatrix a0 = tridiag_scaled(6, 4.0);
  const la::CscMatrix a1 = tridiag_scaled(6, 5.0);
  la::Vector b(6, 1.0);

  SolveReport report;
  auto factor = robust::factor_sparse_with_recovery(a0, report, "test");
  ASSERT_NE(factor.sparse, nullptr);

  ::setenv("IND_SPARSE_NO_REFACTOR", "1", 1);
  auto& metrics = runtime::MetricsRegistry::instance();
  const auto refactors_before =
      metrics.counter("factor.sparse_lu.refactors").value.load();
  robust::refactor_sparse_with_recovery(factor, a1, report, "test");
  ::unsetenv("IND_SPARSE_NO_REFACTOR");

  ASSERT_NE(factor.sparse, nullptr);
  // The gate forces the full from-scratch ladder: no numeric-only pass ran.
  EXPECT_EQ(metrics.counter("factor.sparse_lu.refactors").value.load(),
            refactors_before);
  const la::Vector x = factor.solve(b);
  const la::Vector x0 = la::SparseLu(a1).solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(x[i], x0[i]);
}

}  // namespace
