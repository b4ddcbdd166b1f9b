#include "core/analyzer.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "circuit/waveform.hpp"
#include "govern/budget.hpp"
#include "mor/hierarchical.hpp"
#include "mor/prima.hpp"
#include "mor/reduced_model.hpp"
#include "sparsify/block_diagonal.hpp"
#include "sparsify/halo.hpp"
#include "sparsify/kmatrix.hpp"
#include "sparsify/mutual_spec.hpp"
#include "sparsify/shell.hpp"
#include "sparsify/truncation.hpp"
#include "runtime/metrics.hpp"
#include "store/flows.hpp"

namespace ind::core {
namespace {

/// Publishes the numerical outcome of a flow as integer counters so two
/// BENCH_*.json files can be diffed for *result* equality independent of
/// timing noise: delays/skew in femtoseconds, plus a content hash of every
/// sink waveform (bit patterns, so "equal" means bitwise equal). The CI
/// cold-vs-warm cache job keys on exactly these counters.
void publish_results(const AnalysisReport& report) {
  auto& reg = runtime::MetricsRegistry::instance();
  const std::string prefix = std::string("result.") + flow_key(report.flow);
  auto as_fs = [](double seconds) {
    return static_cast<std::int64_t>(std::llround(seconds * 1e15));
  };
  reg.counter(prefix + ".worst_delay_fs")
      .value.store(as_fs(report.worst_delay), std::memory_order_relaxed);
  reg.counter(prefix + ".skew_fs")
      .value.store(as_fs(report.skew), std::memory_order_relaxed);
  store::Hasher h;
  h.f64s(report.time);
  h.u64(report.sink_waveforms.size());
  for (const la::Vector& wf : report.sink_waveforms) h.f64s(wf);
  reg.counter(prefix + ".waveform_hash")
      .value.store(static_cast<std::int64_t>(h.digest().lo >> 1),
                   std::memory_order_relaxed);
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void measure_sinks(AnalysisReport& report, double vdd) {
  if (report.sink_waveforms.empty()) return;
  const circuit::SkewReport skew = circuit::measure_skew(
      report.time, report.sink_waveforms, report.sink_names, 0.0, vdd);
  report.worst_delay = skew.worst_delay;
  report.best_delay = skew.best_delay;
  report.skew = skew.skew;
  report.worst_sink = skew.worst_sink;
  for (const la::Vector& w : report.sink_waveforms)
    report.overshoot =
        std::max(report.overshoot, circuit::overshoot_fraction(w, 0.0, vdd));
}

/// Fills the report from a flow's transient, started at t_solve: its size,
/// waveforms, truncation and solve report (after the model build's own,
/// e.g. PRIMA's Krylov deflations), then measures the sinks.
void take_transient(AnalysisReport& report, Clock::time_point t_solve,
                    robust::SolveReport build_report,
                    circuit::TransientResult res,
                    std::vector<std::string> sink_names, double vdd) {
  report.solve_seconds = seconds_since(t_solve);
  report.unknowns = res.unknowns;
  report.time = std::move(res.time);
  report.sink_waveforms = std::move(res.samples);
  report.sink_names = std::move(sink_names);
  report.waveform_truncated = res.truncated;
  build_report.merge(res.report);
  report.solve_report = std::move(build_report);
  measure_sinks(report, vdd);
}

sparsify::SparsifiedL run_sparsifier(const AnalysisOptions& opts,
                                     const peec::PeecModel& model) {
  const auto& segs = model.layout.segments();
  const la::Matrix& l = model.extraction.partial_l;
  switch (opts.flow) {
    case Flow::PeecRlcTruncated:
      return sparsify::truncate(l, opts.params.truncation_ratio);
    case Flow::PeecRlcBlockDiag:
      return sparsify::block_diagonal(
          l, sparsify::sections_by_strip(segs, opts.params.block_axis,
                                         opts.params.block_strip_width));
    case Flow::PeecRlcShell:
      return sparsify::shell(segs, opts.params.shell_radius);
    case Flow::PeecRlcHalo:
      return sparsify::halo(segs, l);
    case Flow::PeecRlcKMatrix:
      // The K build inverts the dense partial-L matrix — worth a cache slot
      // of its own, keyed on the exact matrix bits + threshold.
      return store::cached_kmatrix_sparsify(l, opts.params.kmatrix_ratio);
    default:
      throw std::logic_error("run_sparsifier: not a sparsifying flow");
  }
}

AnalysisReport analyze_prima(const geom::Layout& layout,
                             const AnalysisOptions& opts) {
  AnalysisReport report;
  report.flow = opts.flow;
  const auto t_build = Clock::now();

  peec::PeecOptions popts = opts.peec;
  popts.rc_only = false;
  popts.mutual_policy = opts.params.prima_on_block_diagonal
                            ? peec::PeecOptions::MutualPolicy::None
                            : peec::PeecOptions::MutualPolicy::Full;
  peec::PeecModel model = store::cached_peec_model(layout, popts);
  if (opts.params.prima_on_block_diagonal) {
    const sparsify::SparsifiedL spec = sparsify::block_diagonal(
        model.extraction.partial_l,
        sparsify::sections_by_strip(model.layout.segments(),
                                    opts.params.block_axis,
                                    opts.params.block_strip_width));
    sparsify::apply_to_netlist(spec, model.netlist, model.seg_inductor);
  }
  report.counts = model.counts();

  // The drivers stay outside the macromodel (active-port co-simulation of
  // [4]): B gains a port column per driver-attached node, the sink probes
  // (passive sinks of [4]) are the outputs, and G, C exclude the drivers.
  const circuit::Mna mna(model.netlist);
  const std::size_t n = mna.size();
  const circuit::DescriptorSystem full = mna.system(model.receiver_probes);
  const la::Matrix b = mor::port_inputs(full);
  const la::Matrix l_out = mor::output_selectors(full);
  const la::CscMatrix g(full.g), c(full.c);

  mor::ReducedModel reduced;
  if (opts.flow == Flow::PeecRlcHier) {
    // Block id per MNA unknown from geometry: strips along the block axis.
    // Branch currents follow their element's position; voltage-source
    // branches stay global.
    std::vector<int> block_of(n, -1);
    auto strip_of = [&](const geom::Point& p) {
      const double coord =
          opts.params.block_axis == geom::Axis::X ? p.x : p.y;
      return static_cast<int>(
          std::floor(coord / opts.params.hier_strip_width));
    };
    for (std::size_t node = 0; node < model.nodes.size(); ++node)
      block_of[node] = strip_of(model.nodes[node].at);
    for (std::size_t seg = 0; seg < model.seg_inductor.size(); ++seg)
      if (model.seg_inductor[seg] != peec::kNoInductor)
        block_of[mna.inductor_branch(model.seg_inductor[seg])] =
            strip_of(model.layout.segments()[seg].center());
    mor::HierarchicalOptions hopts;
    hopts.order_per_block = opts.params.hier_order_per_block;
    mor::HierarchicalResult hier = mor::hierarchical_reduce(
        g, c, b, l_out, std::move(block_of), hopts);
    reduced = std::move(hier.model);
  } else {
    mor::PrimaOptions prima_opts;
    prima_opts.max_order = opts.params.prima_order;
    reduced = store::cached_prima_reduce(g, c, b, l_out, prima_opts);
  }
  report.build_seconds = seconds_since(t_build);
  report.reduced_order = reduced.order();

  const auto t_solve = Clock::now();
  take_transient(report, t_solve, reduced.report,
                 circuit::transient(mor::reduced_system(reduced, full),
                                    opts.transient),
                 model.receiver_names, model.vdd_volts);
  return report;
}

AnalysisReport analyze_loop(const geom::Layout& layout,
                            const AnalysisOptions& opts) {
  if (opts.signal_net < 0)
    throw std::invalid_argument("analyze: LoopRlc needs signal_net");
  AnalysisReport report;
  report.flow = opts.flow;

  const auto t_build = Clock::now();
  const loop::LoopModel model =
      loop::build_loop_model(layout, opts.signal_net, opts.loop);
  report.build_seconds = seconds_since(t_build);
  report.counts = model.netlist.counts();

  const auto t_solve = Clock::now();
  take_transient(report, t_solve, {},
                 circuit::transient(model.netlist, model.receiver_probes,
                                    opts.transient),
                 model.receiver_names, model.vdd_volts);
  return report;
}

/// One ungoverned attempt at a single flow. Budget trips inside the kernels
/// surface as govern::CancelledError (or as a truncated transient result).
AnalysisReport run_flow(const geom::Layout& layout,
                        const AnalysisOptions& opts) {
  if (opts.flow == Flow::PeecRlcPrima || opts.flow == Flow::PeecRlcHier)
    return analyze_prima(layout, opts);
  if (opts.flow == Flow::LoopRlc) return analyze_loop(layout, opts);

  AnalysisReport report;
  report.flow = opts.flow;

  const auto t_build = Clock::now();
  peec::PeecOptions popts = opts.peec;
  popts.rc_only = opts.flow == Flow::PeecRc;
  popts.mutual_policy = opts.flow == Flow::PeecRlcFull
                            ? peec::PeecOptions::MutualPolicy::Full
                            : peec::PeecOptions::MutualPolicy::None;
  peec::PeecModel model = store::cached_peec_model(layout, popts);
  if (opts.flow != Flow::PeecRc && opts.flow != Flow::PeecRlcFull) {
    const sparsify::SparsifiedL spec = run_sparsifier(opts, model);
    sparsify::apply_to_netlist(spec, model.netlist, model.seg_inductor);
  }
  report.build_seconds = seconds_since(t_build);
  report.counts = model.counts();

  const auto t_solve = Clock::now();
  take_transient(report, t_solve, {},
                 circuit::transient(model.netlist, model.receiver_probes,
                                    opts.transient),
                 model.receiver_names, model.vdd_volts);
  return report;
}

/// The next rung of the degradation ladder (FlowInfo::cheaper). Loop RL
/// needs a signal net to trace, hence the flag.
bool next_cheaper(Flow flow, bool has_signal_net, Flow& out) {
  out = flow_info(flow).cheaper;
  return out != flow && (out != Flow::LoopRlc || has_signal_net);
}

/// Degenerate layouts fail fast with a diagnosis instead of surfacing later
/// as an empty MNA system or a measure_skew over zero sinks.
void validate_for_analysis(const geom::Layout& layout) {
  if (layout.segments().empty())
    throw std::invalid_argument(
        "analyze: layout has no segments — nothing to extract");
  if (layout.drivers().empty())
    throw std::invalid_argument(
        "analyze: layout has no drivers — nothing switches");
  if (layout.receivers().empty())
    throw std::invalid_argument(
        "analyze: layout has no receivers — nothing to measure");
}

}  // namespace

AnalysisReport analyze(const geom::Layout& layout,
                       const AnalysisOptions& opts) {
  validate_for_analysis(layout);

  auto& gov = govern::Governor::instance();
  auto& reg = runtime::MetricsRegistry::instance();
  gov.begin_run();

  // Degradation ladder: each attempt resets the work counter and cancel
  // token (begin_attempt) so the decision to trip at rung k is a pure
  // function of rung k's own work — independent of how rung k-1 failed and
  // of the thread count. Work/memory trips retry one rung cheaper — whether
  // they surfaced as a CancelledError from a build/factor kernel or as a
  // truncated transient (the partial is discarded; the cheaper rung can
  // still deliver a complete answer). A blown deadline cannot be un-spent,
  // so it never retries: a deadline-truncated waveform is returned as-is
  // and a deadline trip outside the stepper propagates to the caller.
  AnalysisOptions attempt = opts;
  std::vector<std::string> degradations;
  const auto retryable = [](govern::BudgetKind kind) {
    return kind == govern::BudgetKind::Work ||
           kind == govern::BudgetKind::Memory;
  };
  const auto note_degradation = [&](govern::BudgetKind kind, Flow cheaper) {
    degradations.push_back(std::string(flow_key(attempt.flow)) + "->" +
                           flow_key(cheaper) + " [" + govern::to_string(kind) +
                           "]");
    reg.add_count("govern.degraded", 1);
    reg.add_count(std::string("govern.degraded_to.") + flow_key(cheaper), 1);
    attempt.flow = cheaper;
  };
  for (;;) {
    gov.begin_attempt();
    Flow cheaper{};
    try {
      AnalysisReport report = run_flow(layout, attempt);
      const govern::BudgetKind kind = gov.cancel_kind();
      if (report.waveform_truncated && retryable(kind) &&
          next_cheaper(attempt.flow, opts.signal_net >= 0, cheaper)) {
        reg.add_count(std::string("govern.budget_exceeded.") +
                          govern::to_string(kind),
                      1);
        note_degradation(kind, cheaper);
        continue;
      }
      report.requested_flow = opts.flow;
      report.degradations = degradations;
      if (report.waveform_truncated) {
        reg.add_count("govern.truncated_waveforms", 1);
        reg.add_count(std::string("govern.budget_exceeded.") +
                          govern::to_string(kind),
                      1);
      }
      publish_results(report);
      gov.publish();
      return report;
    } catch (const govern::CancelledError& e) {
      reg.add_count(
          std::string("govern.budget_exceeded.") + govern::to_string(e.kind()),
          1);
      if (!retryable(e.kind()) ||
          !next_cheaper(attempt.flow, opts.signal_net >= 0, cheaper)) {
        gov.publish();
        throw;
      }
      note_degradation(e.kind(), cheaper);
    }
  }
}

}  // namespace ind::core
