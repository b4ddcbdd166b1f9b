// Resource governance: env-knob parsing, memory tracking, cooperative
// cancellation, the work/deadline budgets and the analyzer's fidelity
// degradation ladder.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include <sys/resource.h>

#include "circuit/transient.hpp"
#include "core/analyzer.hpp"
#include "geom/topologies.hpp"
#include "govern/budget.hpp"
#include "govern/env.hpp"
#include "govern/memory.hpp"
#include "govern/rlimit.hpp"
#include "robust/fault_injection.hpp"
#include "robust/validate.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "store/artifact_cache.hpp"

namespace {

using namespace ind;
using geom::um;

// ---------------------------------------------------------------------------
// Env-knob grammar (satellites: IND_CACHE_MAX_BYTES clamp, IND_THREADS).
// ---------------------------------------------------------------------------

TEST(GovernEnv, ParseU64Grammar) {
  EXPECT_FALSE(govern::parse_u64(nullptr).valid);
  EXPECT_FALSE(govern::parse_u64("").valid);
  EXPECT_FALSE(govern::parse_u64("-1").valid);
  EXPECT_FALSE(govern::parse_u64("+3").valid);
  EXPECT_FALSE(govern::parse_u64(" 3").valid);
  EXPECT_FALSE(govern::parse_u64("3k").valid);
  EXPECT_FALSE(govern::parse_u64("99999999999999999999999").valid);  // overflow
  const auto ok = govern::parse_u64("12345");
  ASSERT_TRUE(ok.valid);
  EXPECT_EQ(ok.value, 12345u);
  const auto zero = govern::parse_u64("0");
  ASSERT_TRUE(zero.valid);
  EXPECT_EQ(zero.value, 0u);
}

TEST(GovernEnv, EnvU64Outcomes) {
  ::unsetenv("IND_TEST_KNOB");
  auto v = govern::env_u64("IND_TEST_KNOB", 7, 1, 100);
  EXPECT_EQ(v.outcome, govern::EnvOutcome::Unset);
  EXPECT_EQ(v.value, 7u);
  EXPECT_FALSE(v.set());

  ::setenv("IND_TEST_KNOB", "42", 1);
  v = govern::env_u64("IND_TEST_KNOB", 7, 1, 100);
  EXPECT_EQ(v.outcome, govern::EnvOutcome::Ok);
  EXPECT_EQ(v.value, 42u);
  EXPECT_TRUE(v.set());

  ::setenv("IND_TEST_KNOB", "5000", 1);
  v = govern::env_u64("IND_TEST_KNOB", 7, 1, 100);
  EXPECT_EQ(v.outcome, govern::EnvOutcome::Clamped);
  EXPECT_EQ(v.value, 100u);

  ::setenv("IND_TEST_KNOB", "banana", 1);
  v = govern::env_u64("IND_TEST_KNOB", 7, 1, 100);
  EXPECT_EQ(v.outcome, govern::EnvOutcome::Invalid);
  EXPECT_EQ(v.value, 7u);
  ::unsetenv("IND_TEST_KNOB");
}

TEST(GovernEnv, CacheCapClampMirror) {
  // The ArtifactCache reads IND_CACHE_MAX_BYTES through env_u64 with these
  // bounds; an absurd sub-MiB cap clamps instead of being honoured.
  ::setenv("IND_CACHE_MAX_BYTES", "42", 1);
  const auto v = govern::env_u64("IND_CACHE_MAX_BYTES",
                                 store::ArtifactCache::kDefaultMaxBytes,
                                 store::ArtifactCache::kMinConfigBytes,
                                 store::ArtifactCache::kMaxConfigBytes,
                                 "store");
  EXPECT_EQ(v.outcome, govern::EnvOutcome::Clamped);
  EXPECT_EQ(v.value, store::ArtifactCache::kMinConfigBytes);
  ::unsetenv("IND_CACHE_MAX_BYTES");
}

TEST(GovernEnv, ParseThreadCount) {
  EXPECT_EQ(runtime::parse_thread_count(nullptr), 0u);
  EXPECT_EQ(runtime::parse_thread_count(""), 0u);
  EXPECT_EQ(runtime::parse_thread_count("garbage"), 0u);
  EXPECT_EQ(runtime::parse_thread_count("-4"), 0u);
  EXPECT_EQ(runtime::parse_thread_count("0"), 0u);   // 0 means auto
  EXPECT_EQ(runtime::parse_thread_count("8"), 8u);
  EXPECT_EQ(runtime::parse_thread_count("9999"), 256u);  // clamped
}

// ---------------------------------------------------------------------------
// Memory accounting.
// ---------------------------------------------------------------------------

TEST(GovernMemory, TrackingAllocatorAndMemCharge) {
  const std::int64_t before = govern::tracked_bytes();
  {
    std::vector<double, govern::TrackingAllocator<double>> v(1024);
    EXPECT_GE(govern::tracked_bytes() - before,
              static_cast<std::int64_t>(1024 * sizeof(double)));
  }
  EXPECT_EQ(govern::tracked_bytes(), before);

  {
    govern::MemCharge charge;
    charge.set(1 << 20);
    EXPECT_EQ(govern::tracked_bytes() - before, 1 << 20);
    charge.set(512);  // re-charge replaces, not accumulates
    EXPECT_EQ(govern::tracked_bytes() - before, 512);
    govern::MemCharge moved = std::move(charge);
    EXPECT_EQ(govern::tracked_bytes() - before, 512);
  }
  EXPECT_EQ(govern::tracked_bytes(), before);

  govern::reset_peak_tracked_bytes();
  {
    govern::MemCharge charge;
    charge.set(4096);
    EXPECT_GE(govern::peak_tracked_bytes(), before + 4096);
  }
}

// ---------------------------------------------------------------------------
// Cooperative cancellation in the parallel runtime.
// ---------------------------------------------------------------------------

TEST(GovernCancel, PreFiredTokenSkipsAllChunks) {
  runtime::CancelToken token;
  token.cancel(static_cast<int>(govern::BudgetKind::External));
  std::atomic<int> ran{0};
  runtime::ParallelOptions opts;
  opts.cancel = &token;
  runtime::parallel_for(
      1000, [&](std::size_t b, std::size_t e) { ran += int(e - b); }, opts);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(token.kind(), static_cast<int>(govern::BudgetKind::External));
}

TEST(GovernCancel, MidRunFireStopsEarlyAndPoolStaysUsable) {
  runtime::set_global_threads(4);
  runtime::CancelToken token;
  std::atomic<int> ran{0};
  runtime::ParallelOptions opts;
  opts.grain = 1;  // many chunks so a mid-run fire has chunks left to skip
  opts.cancel = &token;
  runtime::parallel_for(
      10000,
      [&](std::size_t b, std::size_t e) {
        ran += int(e - b);
        token.cancel(static_cast<int>(govern::BudgetKind::Work));
      },
      opts);
  EXPECT_GT(ran.load(), 0);
  EXPECT_LT(ran.load(), 10000);

  // First cause wins; later causes do not overwrite it.
  token.cancel(static_cast<int>(govern::BudgetKind::Deadline));
  EXPECT_EQ(token.kind(), static_cast<int>(govern::BudgetKind::Work));

  // The pool drained cleanly: a fresh loop on the same pool still runs all
  // chunks to completion.
  std::atomic<int> ran2{0};
  runtime::parallel_for(
      1000, [&](std::size_t b, std::size_t e) { ran2 += int(e - b); });
  EXPECT_EQ(ran2.load(), 1000);
  runtime::set_global_threads(0);
}

// ---------------------------------------------------------------------------
// Governor checkpoint machinery.
// ---------------------------------------------------------------------------

class GovernBudgetTest : public ::testing::Test {
 protected:
  void TearDown() override {
    robust::fault::clear();
    auto& gov = govern::Governor::instance();
    gov.configure({});
    gov.begin_run();  // clears any cancellation armed by the test
    runtime::set_global_threads(0);
  }
};

TEST_F(GovernBudgetTest, WorkBudgetTripsDeterministically) {
  auto& gov = govern::Governor::instance();
  govern::RunBudget b;
  b.work_units = 100;
  gov.configure(b);
  gov.begin_run();
  std::uint64_t calls = 0;
  while (!govern::checkpoint(10)) ++calls;
  EXPECT_EQ(calls, 10u);  // trips when the running total crosses 100
  EXPECT_EQ(gov.cancel_kind(), govern::BudgetKind::Work);
  EXPECT_THROW(govern::throw_if_cancelled("test"), govern::CancelledError);

  // A new attempt clears the trip and re-counts from zero.
  gov.begin_attempt();
  EXPECT_FALSE(gov.cancelled());
  EXPECT_EQ(gov.work_units(), 0u);
  EXPECT_FALSE(govern::checkpoint(50));
}

TEST_F(GovernBudgetTest, ExternalCancelSurvivesAttemptReset) {
  auto& gov = govern::Governor::instance();
  gov.configure({});
  gov.begin_run();

  // Budget trips are cleared by the next rung — that is what lets the
  // ladder degrade past them.
  gov.cancel(govern::BudgetKind::Work);
  gov.begin_attempt();
  EXPECT_FALSE(gov.cancelled());

  // An external cancel (client disconnect, service shutdown) is an
  // abandonment, not a budget trip: it must survive the rung-to-rung token
  // reset even when another cause won the token's first-cause slot.
  gov.cancel(govern::BudgetKind::Work);
  gov.cancel(govern::BudgetKind::External);  // loses the slot to Work
  gov.begin_attempt();
  EXPECT_TRUE(gov.cancelled());
  EXPECT_EQ(gov.cancel_kind(), govern::BudgetKind::External);
  gov.begin_attempt();  // sticky across every later rung of this run
  EXPECT_TRUE(gov.cancelled());

  // A fresh run starts clean.
  gov.begin_run();
  EXPECT_FALSE(gov.cancelled());
  gov.begin_attempt();
  EXPECT_FALSE(gov.cancelled());
}

TEST_F(GovernBudgetTest, UnbudgetedCheckpointNeverTrips) {
  auto& gov = govern::Governor::instance();
  gov.configure({});
  gov.begin_run();
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(govern::checkpoint(1 << 20));
  EXPECT_EQ(gov.deadline_margin_ms(), -1);
}

// ---------------------------------------------------------------------------
// Transient truncation: a budget trip mid-integration keeps the prefix.
// ---------------------------------------------------------------------------

TEST_F(GovernBudgetTest, TransientTruncatesInsteadOfDiscarding) {
  using circuit::kGround;
  circuit::Netlist nl;
  const auto in = nl.node("in"), out = nl.node("out");
  nl.add_vsource(in, kGround, circuit::Pwl({{0.0, 0.0}, {1e-12, 1.0}}));
  nl.add_resistor(in, out, 100.0);
  nl.add_capacitor(out, kGround, 1e-13);
  const std::vector<circuit::Probe> probes{
      {circuit::ProbeKind::NodeVoltage, static_cast<std::size_t>(out), "out"}};
  circuit::TransientOptions topts;
  topts.t_stop = 1e-9;
  topts.dt = 1e-12;

  auto& gov = govern::Governor::instance();
  gov.configure({});
  gov.begin_run();
  const auto full = circuit::transient(nl, probes, topts);
  ASSERT_FALSE(full.truncated);
  const std::uint64_t full_work = gov.work_units();
  ASSERT_GT(full_work, 0u);

  govern::RunBudget b;
  b.work_units = full_work / 2;
  gov.configure(b);
  gov.begin_run();
  const auto cut = circuit::transient(nl, probes, topts);
  EXPECT_TRUE(cut.truncated);
  ASSERT_FALSE(cut.time.empty());
  EXPECT_LT(cut.time.size(), full.time.size());
  // The prefix it did compute matches the unbudgeted run bitwise.
  for (std::size_t k = 0; k < cut.time.size(); ++k)
    EXPECT_EQ(cut.samples[0][k], full.samples[0][k]);
  bool saw_budget_action = false;
  for (const auto& a : cut.report.actions)
    saw_budget_action |= a.kind == robust::RecoveryKind::BudgetExceeded;
  EXPECT_TRUE(saw_budget_action);
}

// ---------------------------------------------------------------------------
// The degradation ladder.
// ---------------------------------------------------------------------------

// Big enough that the MNA system crosses the sparse-solver threshold: the
// fully coupled flow then steps on a dense factor (n^2 per step) while the
// sparsified rungs step on a sparse one (nnz per step), so each rung down
// the ladder reports genuinely less work.
geom::Layout ladder_workload(int* signal_net) {
  geom::Layout l(geom::default_tech());
  geom::DriverReceiverGridSpec spec;
  spec.grid.extent_x = um(600);
  spec.grid.extent_y = um(600);
  spec.grid.pitch = um(100);
  spec.grid.pads_per_side = 1;
  spec.signal_length = um(500);
  spec.signal_width = um(3);
  const auto r = geom::add_driver_receiver_grid(l, spec);
  *signal_net = r.signal_net;
  return l;
}

core::AnalysisOptions ladder_options(core::Flow flow, int signal_net) {
  core::AnalysisOptions opts;
  opts.flow = flow;
  opts.signal_net = signal_net;
  opts.peec.max_segment_length = um(150);
  opts.peec.decap.sites = 4;
  opts.transient.t_stop = 1.2e-9;
  opts.transient.dt = 2e-12;
  opts.loop.extraction.max_segment_length = um(150);
  opts.loop.max_segment_length = um(150);
  return opts;
}

/// Work units one flow consumes with no budget armed (pure function of the
/// problem shape — see the determinism contract in govern/budget.hpp).
std::uint64_t work_of(const geom::Layout& l, core::Flow flow, int net) {
  auto& gov = govern::Governor::instance();
  gov.configure({});
  const auto r = core::analyze(l, ladder_options(flow, net));
  EXPECT_TRUE(r.degradations.empty());
  return gov.work_units();
}

TEST_F(GovernBudgetTest, WorkBudgetDegradesFullToBlockDiag) {
  int net = -1;
  const geom::Layout l = ladder_workload(&net);
  const std::uint64_t w_full = work_of(l, core::Flow::PeecRlcFull, net);
  const std::uint64_t w_bd = work_of(l, core::Flow::PeecRlcBlockDiag, net);
  ASSERT_LT(w_bd, w_full);  // the rung must actually be cheaper

  auto& gov = govern::Governor::instance();
  govern::RunBudget b;
  b.work_units = w_bd + (w_full - w_bd) / 2;
  gov.configure(b);
  const auto r = core::analyze(l, ladder_options(core::Flow::PeecRlcFull, net));
  EXPECT_EQ(r.requested_flow, core::Flow::PeecRlcFull);
  EXPECT_EQ(r.flow, core::Flow::PeecRlcBlockDiag);
  ASSERT_EQ(r.degradations.size(), 1u);
  EXPECT_NE(r.degradations[0].find("peec_rlc->peec_rlc_blockdiag"),
            std::string::npos);
  EXPECT_NE(r.degradations[0].find("[work]"), std::string::npos);
  EXPECT_FALSE(r.sink_waveforms.empty());
}

TEST_F(GovernBudgetTest, TightBudgetWalksLadderToLoopModel) {
  int net = -1;
  const geom::Layout l = ladder_workload(&net);
  const std::uint64_t w_loop = work_of(l, core::Flow::LoopRlc, net);
  std::uint64_t w_min_peec = UINT64_MAX;
  for (const core::Flow f :
       {core::Flow::PeecRlcFull, core::Flow::PeecRlcBlockDiag,
        core::Flow::PeecRlcShell, core::Flow::PeecRlcTruncated})
    w_min_peec = std::min(w_min_peec, work_of(l, f, net));
  ASSERT_LT(w_loop, w_min_peec);  // the loop model must be the cheap exit

  auto& gov = govern::Governor::instance();
  govern::RunBudget b;
  b.work_units = w_loop + (w_min_peec - w_loop) / 2;
  gov.configure(b);
  const auto r = core::analyze(l, ladder_options(core::Flow::PeecRlcFull, net));
  EXPECT_EQ(r.flow, core::Flow::LoopRlc);
  // Full -> blockdiag -> shell -> truncated -> loop: four rungs recorded.
  ASSERT_EQ(r.degradations.size(), 4u);
  EXPECT_NE(r.degradations.back().find("loop_rlc"), std::string::npos);
  EXPECT_FALSE(r.sink_waveforms.empty());
}

TEST_F(GovernBudgetTest, DegradationIsBitwiseDeterministicAcrossThreads) {
  int net = -1;
  const geom::Layout l = ladder_workload(&net);
  const std::uint64_t w_full = work_of(l, core::Flow::PeecRlcFull, net);
  const std::uint64_t w_bd = work_of(l, core::Flow::PeecRlcBlockDiag, net);
  ASSERT_LT(w_bd, w_full);

  auto& gov = govern::Governor::instance();
  govern::RunBudget b;
  b.work_units = w_bd + (w_full - w_bd) / 2;

  runtime::set_global_threads(1);
  gov.configure(b);
  const auto r1 = core::analyze(l, ladder_options(core::Flow::PeecRlcFull, net));

  runtime::set_global_threads(4);
  gov.configure(b);
  const auto r4 = core::analyze(l, ladder_options(core::Flow::PeecRlcFull, net));

  EXPECT_EQ(r1.flow, r4.flow);
  EXPECT_EQ(r1.degradations, r4.degradations);
  ASSERT_EQ(r1.time.size(), r4.time.size());
  ASSERT_EQ(r1.sink_waveforms.size(), r4.sink_waveforms.size());
  for (std::size_t w = 0; w < r1.sink_waveforms.size(); ++w)
    for (std::size_t k = 0; k < r1.time.size(); ++k)
      EXPECT_EQ(r1.sink_waveforms[w][k], r4.sink_waveforms[w][k]);
}

TEST_F(GovernBudgetTest, BudgetCheckFaultSiteForcesOneDegradation) {
  int net = -1;
  const geom::Layout l = ladder_workload(&net);
  // No budget armed at all: the very first checkpoint behaves as if the
  // work budget tripped, then injection is spent and the retry completes.
  robust::fault::configure("budget_check@0");
  const auto r = core::analyze(l, ladder_options(core::Flow::PeecRlcFull, net));
  EXPECT_GE(robust::fault::fired(robust::fault::Site::BudgetCheck), 1);
  EXPECT_EQ(r.requested_flow, core::Flow::PeecRlcFull);
  EXPECT_EQ(r.flow, core::Flow::PeecRlcBlockDiag);
  ASSERT_EQ(r.degradations.size(), 1u);
  EXPECT_FALSE(r.sink_waveforms.empty());
}

// The PRIMA flow's driver co-simulation runs through circuit::transient,
// so it carries the transient_step fault site: one injected non-finite
// step is re-solved (a Retry action in the flow's report) and the
// waveforms equal the undisturbed run's bitwise.
TEST_F(GovernBudgetTest, PrimaCosimulationRecoversInjectedStepFault) {
  int net = -1;
  const geom::Layout l = ladder_workload(&net);
  const auto opts = ladder_options(core::Flow::PeecRlcPrima, net);
  const auto base = core::analyze(l, opts);
  ASSERT_TRUE(base.solve_report.actions.empty());
  robust::fault::configure("transient_step@5");
  const auto r = core::analyze(l, opts);
  EXPECT_EQ(robust::fault::fired(robust::fault::Site::TransientStep), 1);
  EXPECT_EQ(r.flow, core::Flow::PeecRlcPrima);
  EXPECT_EQ(r.solve_report.status, robust::SolveStatus::Recovered);
  ASSERT_EQ(r.solve_report.actions.size(), 1u);
  EXPECT_EQ(r.solve_report.actions[0].kind, robust::RecoveryKind::Retry);
  EXPECT_EQ(r.solve_report.actions[0].where, "transient step 6");
  EXPECT_EQ(r.sink_waveforms, base.sink_waveforms);
}

// A work budget that runs out inside the PRIMA co-simulation (one unit
// short of the flow's unbudgeted work, so the last step's poll trips)
// truncates it with a BudgetExceeded action, and the analyzer degrades one
// rung, as it does for a truncated full-PEEC transient.
TEST_F(GovernBudgetTest, WorkBudgetTruncatesPrimaCosimulation) {
  int net = -1;
  const geom::Layout l = ladder_workload(&net);
  const std::uint64_t w_prima = work_of(l, core::Flow::PeecRlcPrima, net);
  auto& truncations =
      runtime::MetricsRegistry::instance().counter("robust.action.budget_exceeded");
  const std::int64_t before = truncations.value.load();
  govern::RunBudget b;
  b.work_units = w_prima - 1;
  govern::Governor::instance().configure(b);
  const auto r =
      core::analyze(l, ladder_options(core::Flow::PeecRlcPrima, net));
  EXPECT_EQ(r.requested_flow, core::Flow::PeecRlcPrima);
  ASSERT_FALSE(r.degradations.empty());
  EXPECT_EQ(r.degradations[0], "peec_rlc_prima->peec_rlc_blockdiag [work]");
  EXPECT_GE(truncations.value.load() - before, 1);
}

TEST_F(GovernBudgetTest, DeadlineNeverRetries) {
  int net = -1;
  const geom::Layout l = ladder_workload(&net);
  auto& gov = govern::Governor::instance();
  govern::RunBudget b;
  b.deadline_ms = 1;  // will expire long before the analysis completes
  gov.configure(b);
  try {
    const auto r =
        core::analyze(l, ladder_options(core::Flow::PeecRlcFull, net));
    // The deadline landed inside the transient stepper: the analyzer keeps
    // the prefix, marks it truncated, and does NOT walk the ladder.
    EXPECT_TRUE(r.waveform_truncated);
    EXPECT_TRUE(r.degradations.empty());
  } catch (const govern::CancelledError& e) {
    // It landed in a build/factor stage: no cheaper retry is attempted.
    EXPECT_EQ(e.kind(), govern::BudgetKind::Deadline);
  }
}

TEST_F(GovernBudgetTest, GovernCountersPublished) {
  int net = -1;
  const geom::Layout l = ladder_workload(&net);
  auto& gov = govern::Governor::instance();
  gov.configure({});
  (void)core::analyze(l, ladder_options(core::Flow::PeecRlcBlockDiag, net));
  auto& reg = runtime::MetricsRegistry::instance();
  EXPECT_GT(reg.counter("govern.work_units").value.load(), 0);
  EXPECT_GT(reg.counter("govern.checkpoints").value.load(), 0);
  EXPECT_EQ(reg.counter("govern.budget_armed").value.load(), 0);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("govern.work_units"), std::string::npos);
  EXPECT_NE(json.find("govern.peak_rss_bytes"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Degenerate-layout front door.
// ---------------------------------------------------------------------------

TEST(GovernValidate, AnalyzeRejectsDegenerateLayouts) {
  geom::Layout empty(geom::default_tech());
  EXPECT_THROW(core::analyze(empty, {}), std::invalid_argument);

  // Wires but no drivers/receivers: nothing switches, nothing to measure.
  geom::Layout bare(geom::default_tech());
  const int sig = bare.add_net("sig", geom::NetKind::Signal);
  bare.add_wire(sig, 6, {0, 0}, {um(100), 0}, um(1));
  EXPECT_THROW(core::analyze(bare, {}), std::invalid_argument);

  const auto report = robust::validate(empty);
  EXPECT_TRUE(report.has_errors());
  bool saw_empty = false, saw_drivers = false, saw_receivers = false;
  for (const auto& i : report.issues) {
    saw_empty |= i.code == "empty-layout";
    saw_drivers |= i.code == "no-drivers";
    saw_receivers |= i.code == "no-receivers";
  }
  EXPECT_TRUE(saw_empty);
  EXPECT_TRUE(saw_drivers);
  EXPECT_TRUE(saw_receivers);
}

// ---------------------------------------------------------------------------
// Budget -> worker rlimit mapping (the serve sandbox derives OS backstops
// from the effective RunBudget; see govern/rlimit.hpp).
// ---------------------------------------------------------------------------

TEST(GovernRlimit, MapsEffectiveBudgetToWorkerLimits) {
  govern::RunBudget budget;
  budget.mem_bytes = 100ull << 20;
  budget.deadline_ms = 2500;  // rounds up to 3 whole CPU seconds

  const govern::WorkerRlimits limits =
      govern::worker_rlimits(budget, 64ull << 20, 4);
  EXPECT_EQ(limits.as_bytes, (100ull << 20) + (64ull << 20));
  EXPECT_EQ(limits.cpu_seconds, 3u + 4u);
  EXPECT_TRUE(limits.any());
}

TEST(GovernRlimit, UnlimitedBudgetLeavesLimitsAlone) {
  const govern::WorkerRlimits limits = govern::worker_rlimits({}, 512, 5);
  EXPECT_EQ(limits.as_bytes, 0u);
  EXPECT_EQ(limits.cpu_seconds, 0u);
  EXPECT_FALSE(limits.any());

  // Partial budgets only arm the matching backstop.
  govern::RunBudget mem_only;
  mem_only.mem_bytes = 1ull << 20;
  EXPECT_EQ(govern::worker_rlimits(mem_only, 0, 9).cpu_seconds, 0u);
  EXPECT_EQ(govern::worker_rlimits(mem_only, 0, 9).as_bytes, 1ull << 20);

  govern::RunBudget cpu_only;
  cpu_only.deadline_ms = 999;
  EXPECT_EQ(govern::worker_rlimits(cpu_only, 7, 0).as_bytes, 0u);
  EXPECT_EQ(govern::worker_rlimits(cpu_only, 7, 0).cpu_seconds, 1u);
}

TEST(GovernRlimit, ApplyAndRelaxSoftLimitsRoundTrip) {
  // Lower RLIMIT_AS generously (8 GiB — far above anything the test
  // allocates), confirm the soft limit moved, then relax back.
  rlimit before{};
  ASSERT_EQ(getrlimit(RLIMIT_AS, &before), 0);

  govern::WorkerRlimits limits;
  limits.as_bytes = 8ull << 30;
  EXPECT_TRUE(govern::apply_worker_rlimits(limits));
  rlimit lowered{};
  ASSERT_EQ(getrlimit(RLIMIT_AS, &lowered), 0);
  if (before.rlim_max == RLIM_INFINITY || before.rlim_max > (8ull << 30))
    EXPECT_EQ(lowered.rlim_cur, static_cast<rlim_t>(8ull << 30));

  govern::relax_worker_rlimits();
  rlimit relaxed{};
  ASSERT_EQ(getrlimit(RLIMIT_AS, &relaxed), 0);
  EXPECT_EQ(relaxed.rlim_cur, before.rlim_max == RLIM_INFINITY
                                  ? RLIM_INFINITY
                                  : before.rlim_max);
}

}  // namespace
