// clock_flows — the paper's Table-1 / Section-4 comparison as a closed loop
// with one caller.
//
// One op = core::analyze of one clock-over-grid layout (800 um power grid,
// 64-sink H-tree) under PEEC(RC), full PEEC(RLC), block-diagonal PEEC(RLC)
// and PRIMA. Every op does the same work; the seed only changes values (the
// sink loads and the background switching sources), never sizes. Exercises
// peec, extract, sparsify, mor, circuit and la; bypasses loop, fast and
// serve. K-matrix (1-2 s on its own) and LoopRlc are left out so this
// workload stays the bypass for loop-side changes.
//
// Traced run: the first half of the window repeats the untraced op (the
// tracing-overhead reference); the second half composes the same flows from
// public calls with a span around each layer. PRIMA stays one span around
// core::analyze because its co-simulation is not composable from outside.
#include <array>
#include <cstdio>
#include <optional>
#include <string>

#include "bench.hpp"
#include "circuit/waveform.hpp"
#include "core/analyzer.hpp"
#include "geom/topologies.hpp"
#include "runtime/metrics.hpp"
#include "sparsify/block_diagonal.hpp"
#include "store/hash.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using ind::core::Flow;
using ind::geom::um;

constexpr std::array<Flow, 4> kFlows = {Flow::PeecRc, Flow::PeecRlcFull,
                                        Flow::PeecRlcBlockDiag,
                                        Flow::PeecRlcPrima};
constexpr int kPool = 3;  // layouts per seed; ops cycle through them
// Set-up is repeated before and after the window and reported as the
// median: repeats spread over the whole run see the box's slow and fast
// periods alike, where back-to-back repeats all land in one of them.
constexpr int kSetupBefore = 3;
constexpr int kSetupAfter = 4;

struct Member {
  ind::geom::Layout layout{ind::geom::default_tech()};
  ind::core::AnalysisOptions opts;
};

/// Table-1 knobs (bench_table1_clocknet), with the sink loads and the
/// background sources drawn from the seed.
Member make_member(std::uint64_t seed) {
  Rng rng(seed);
  Member m;
  ind::geom::PowerGridSpec grid;
  grid.extent_x = um(800);
  grid.extent_y = um(800);
  grid.pitch = um(160);
  grid.pads_per_side = 2;
  grid.horizontal_layer = 3;  // layers 5/6 stay exclusive to the clock
  grid.vertical_layer = 4;
  ind::geom::add_power_grid(m.layout, grid);

  ind::geom::ClockTreeSpec clock;
  clock.levels = 3;  // 64 sector buffers
  clock.center = {um(400), um(400)};
  clock.span = um(600);
  clock.driver_res = 5.0;
  clock.sink_cap = rng.uniform(35e-15, 65e-15);
  clock.sink_cap_variation = 0.6;
  const int clk = ind::geom::add_clock_htree(m.layout, clock);

  auto& o = m.opts;
  o.signal_net = clk;
  o.peec.max_segment_length = um(160);
  o.peec.mutual_window = um(200);
  o.peec.decap.sites = 24;
  o.peec.background.enable = true;
  o.peec.background.sources = 8;
  o.peec.background.seed = rng.next();
  o.peec.background.peak_current = rng.uniform(3e-3, 7e-3);
  o.transient.t_stop = 1.0e-9;
  o.transient.dt = 2e-12;
  return m;
}

/// Bitwise result digest: time axis, every sink waveform, worst delay, skew.
ind::store::Digest digest(const ind::la::Vector& time,
                          const std::vector<ind::la::Vector>& waves,
                          double worst_delay, double skew) {
  ind::store::Hasher h;
  h.f64s(time);
  h.u64(waves.size());
  for (const auto& w : waves) h.f64s(w);
  h.f64(worst_delay);
  h.f64(skew);
  return h.digest();
}

using Digests = std::array<ind::store::Digest, kFlows.size()>;

struct OpOutcome {
  Digests digests;
  double rc_delay = 0.0, rlc_delay = 0.0;
  std::string error;  ///< non-empty when the op failed
};

ind::core::AnalysisOptions with_flow(const Member& m, Flow flow) {
  ind::core::AnalysisOptions o = m.opts;
  o.flow = flow;
  return o;
}

/// The end-to-end op: one core::analyze per flow.
OpOutcome analyze_op(const Member& m) {
  OpOutcome out;
  for (std::size_t k = 0; k < kFlows.size(); ++k) {
    const ind::core::AnalysisReport rep =
        ind::core::analyze(m.layout, with_flow(m, kFlows[k]));
    if (rep.flow != kFlows[k] || !rep.degradations.empty() ||
        rep.waveform_truncated || rep.sink_waveforms.empty())
      out.error = std::string(ind::core::flow_name(kFlows[k])) +
                  " did not run to completion";
    out.digests[k] = digest(rep.time, rep.sink_waveforms, rep.worst_delay,
                            rep.skew);
    if (kFlows[k] == Flow::PeecRc) out.rc_delay = rep.worst_delay;
    if (kFlows[k] == Flow::PeecRlcFull) out.rlc_delay = rep.worst_delay;
  }
  return out;
}

/// Exact per-op counts read from the registry around each transient.
struct Counts {
  std::int64_t steps = 0, refactors = 0, fill_nnz = 0, matrix_nnz = 0;
  bool operator==(const Counts&) const = default;
};

std::int64_t counter(const char* name) {
  return ind::runtime::MetricsRegistry::instance().counter(name).value.load();
}

/// The same op composed from public calls, one span per layer. Each flow
/// mirrors what core::analyze runs for it (the artifact cache is off, so
/// store::cached_peec_model is peec::build_peec_model).
OpOutcome traced_op(const Member& m, Tracer& tr, Counts& counts) {
  Tracer::Scope op(&tr, "op");
  OpOutcome out;
  for (std::size_t k = 0; k < kFlows.size(); ++k) {
    const Flow flow = kFlows[k];
    if (flow == Flow::PeecRlcPrima) {
      std::optional<ind::core::AnalysisReport> rep;
      {
        Tracer::Scope s(&tr, "mor.prima_flow");
        rep = ind::core::analyze(m.layout, with_flow(m, flow));
      }
      out.digests[k] = digest(rep->time, rep->sink_waveforms,
                              rep->worst_delay, rep->skew);
      continue;
    }
    ind::peec::PeecOptions popts = m.opts.peec;
    popts.rc_only = flow == Flow::PeecRc;
    popts.mutual_policy = flow == Flow::PeecRlcFull
                              ? ind::peec::PeecOptions::MutualPolicy::Full
                              : ind::peec::PeecOptions::MutualPolicy::None;
    std::optional<ind::peec::PeecModel> model;
    {
      Tracer::Scope s(&tr, "peec.build");
      model = ind::peec::build_peec_model(m.layout, popts);
    }
    if (flow == Flow::PeecRlcBlockDiag) {
      Tracer::Scope s(&tr, "sparsify");
      const auto& p = m.opts.params;
      const ind::sparsify::SparsifiedL spec = ind::sparsify::block_diagonal(
          model->extraction.partial_l,
          ind::sparsify::sections_by_strip(model->layout.segments(),
                                           p.block_axis,
                                           p.block_strip_width));
      ind::sparsify::apply_to_netlist(spec, model->netlist,
                                      model->seg_inductor);
    }
    ind::runtime::MetricsRegistry::instance().reset();
    std::optional<ind::circuit::TransientResult> res;
    {
      Tracer::Scope s(&tr, "circuit.transient");
      res = ind::circuit::transient(model->netlist, model->receiver_probes,
                                    m.opts.transient);
    }
    counts.steps += counter("solve.transient.steps");
    counts.refactors += counter("solve.transient.refactors");
    counts.fill_nnz += counter("factor.sparse_lu.fill_nnz");
    counts.matrix_nnz += counter("factor.sparse_lu.max_nnz");

    const ind::circuit::SkewReport skew = ind::circuit::measure_skew(
        res->time, res->samples, model->receiver_names, 0.0,
        model->vdd_volts);
    out.digests[k] =
        digest(res->time, res->samples, skew.worst_delay, skew.skew);
    if (flow == Flow::PeecRc) out.rc_delay = skew.worst_delay;
    if (flow == Flow::PeecRlcFull) out.rlc_delay = skew.worst_delay;
  }
  return out;
}

/// Per-op correctness: the Table-1 ordering, and every digest equal to the
/// member's reference (recorded on its first op). Returns whether the op
/// was correct; failures are recorded in `r`.
bool check(const OpOutcome& o, int member,
           std::array<std::optional<Digests>, kPool>& refs, Result& r) {
  bool ok = o.error.empty();
  if (!ok) r.fail(o.error);
  if (!(o.rc_delay > 0 && o.rc_delay < o.rlc_delay)) {
    ok = false;
    r.fail("Table-1 ordering violated: RC delay " +
           json_num(o.rc_delay) + " s >= RLC delay " +
           json_num(o.rlc_delay) + " s");
  }
  auto& ref = refs[static_cast<std::size_t>(member)];
  if (!ref) {
    ref = o.digests;
    return ok;
  }
  for (std::size_t k = 0; k < kFlows.size(); ++k)
    if (!(o.digests[k] == (*ref)[k])) {
      ok = false;
      r.fail(std::string(ind::core::flow_name(kFlows[k])) +
             " digest of member " + std::to_string(member) +
             " changed: " + o.digests[k].hex() + " vs " + (*ref)[k].hex());
    }
  return ok;
}

}  // namespace

Result run_clock_flows(const Args& args) {
  Result r;
  std::vector<Member> pool;
  std::array<std::optional<Digests>, kPool> refs;
  std::vector<double> setup_s;
  // One set-up: generate the pool, then one warm-up op.
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    pool.clear();
    for (int k = 0; k < kPool; ++k)
      pool.push_back(make_member(sub_seed(args.seed, k)));
    const OpOutcome warm = analyze_op(pool[0]);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    r.failed += !check(warm, 0, refs, r);
    r.attempted += 1;
  };
  for (int rep = 0; rep < kSetupBefore; ++rep) set_up();

  // Timed window. Traced runs spend the first half untraced.
  const double window_ms = args.seconds * 1e3;
  const double untraced_ms = args.trace ? window_ms / 2 : window_ms;
  std::vector<double> op_ms, traced_ms;
  double ok_ops = 0;
  int n_ops = 0;
  const auto start = Clock::now();
  auto last_end = start;
  while (ms_between(start, Clock::now()) < untraced_ms) {
    const int member = n_ops % kPool;
    const auto t0 = Clock::now();
    const OpOutcome o = analyze_op(pool[static_cast<std::size_t>(member)]);
    last_end = Clock::now();
    op_ms.push_back(ms_between(t0, last_end));
    const bool ok = check(o, member, refs, r);
    ok_ops += ok;
    r.failed += !ok;
    ++n_ops;
  }
  r.attempted += n_ops;

  if (!args.trace) {
    const double window_s = ms_between(start, last_end) / 1e3;
    for (int rep = 0; rep < kSetupAfter; ++rep) set_up();
    add_end_to_end(r, op_ms, ok_ops, window_s, setup_s);
  } else {
    // Composed flows must reproduce core::analyze bit for bit: every member
    // needs its reference digests before the traced half starts.
    for (int k = 0; k < kPool; ++k)
      if (!refs[static_cast<std::size_t>(k)])
        check(analyze_op(pool[static_cast<std::size_t>(k)]), k, refs, r);
    Tracer tr;
    // Exact counts depend on the member only: each member's first traced op
    // sets them, and every later op of that member must repeat them.
    std::array<std::optional<Counts>, kPool> counts;
    const auto t_start = Clock::now();
    int n_traced = 0;
    while (ms_between(t_start, Clock::now()) < window_ms - untraced_ms) {
      const int member = n_traced % kPool;
      tr.set_op(n_traced);
      Counts c;
      const auto t0 = Clock::now();
      const OpOutcome o =
          traced_op(pool[static_cast<std::size_t>(member)], tr, c);
      traced_ms.push_back(ms_between(t0, Clock::now()));
      bool ok = check(o, member, refs, r);
      auto& first = counts[static_cast<std::size_t>(member)];
      if (!first) {
        first = c;
      } else if (!(c == *first)) {
        ok = false;
        r.fail("exact counts of member " + std::to_string(member) +
               " changed between ops");
      }
      r.failed += !ok;
      ++n_traced;
    }
    r.attempted += n_traced;

    // One value per member, so the reported counts do not depend on how
    // many ops the window held.
    std::vector<double> steps, refactors, fill_ratio;
    for (const auto& c : counts) {
      if (!c) continue;
      steps.push_back(static_cast<double>(c->steps));
      refactors.push_back(static_cast<double>(c->refactors));
      fill_ratio.push_back(c->matrix_nnz
                               ? static_cast<double>(c->fill_nnz) /
                                     static_cast<double>(c->matrix_nnz)
                               : 0.0);
    }
    const std::vector<double> residual = op_residuals(tr, traced_ms, r);
    r.add("peec.build_ms", median(tr.per_op_ms("peec.build", n_traced)), "ms");
    r.add("sparsify.ms", median(tr.per_op_ms("sparsify", n_traced)), "ms");
    r.add("mor.prima_flow_ms",
          median(tr.per_op_ms("mor.prima_flow", n_traced)), "ms");
    r.add("circuit.transient_ms",
          median(tr.per_op_ms("circuit.transient", n_traced)), "ms");
    r.add("circuit.steps", median(steps), "count");
    r.add("circuit.refactors", median(refactors), "count");
    r.add("la.sparse_fill_per_nnz", median(fill_ratio), "ratio");
    r.add("core.residual_ms", median(residual), "ms");
    finish_trace(args, tr, r,
                 trace_overhead_pct(r, median(traced_ms), median(op_ms)));
  }

  std::string d = "{";
  for (int k = 0; k < kPool; ++k) {
    if (!refs[static_cast<std::size_t>(k)]) continue;
    d += std::string(d.size() > 1 ? "," : "") + "\"member" + std::to_string(k) +
         "\":[";
    for (std::size_t f = 0; f < kFlows.size(); ++f)
      d += (f ? ",\"" : "\"") + (*refs[static_cast<std::size_t>(k)])[f].hex() +
           "\"";
    d += "]";
  }
  r.detail("digests", d + "}");
  r.detail("flows", "[\"peec_rc\",\"peec_rlc\",\"peec_rlc_blockdiag\","
                    "\"peec_rlc_prima\"]");
  return r;
}

}  // namespace perfbench
