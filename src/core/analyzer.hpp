// InductanceAnalyzer: the top-level flows of the paper behind one call.
//
//   Flow::PeecRc            — Table 1 "PEEC (RC)": no inductance at all
//   Flow::PeecRlcFull       — Table 1 "PEEC (RLC)": full partial mutuals
//   Flow::PeecRlcTruncated  — Section 4 truncation (unstable baseline)
//   Flow::PeecRlcBlockDiag  — Section 4 block-diagonal sparsification
//   Flow::PeecRlcShell      — Section 4 shell (shift-truncate)
//   Flow::PeecRlcHalo       — Section 4 halo / return-limited
//   Flow::PeecRlcKMatrix    — Section 4 K = L^-1 element
//   Flow::PeecRlcPrima      — Section 4 combined flow [4]: PRIMA + driver
//                             co-simulation through circuit::transient
//                             (optionally on a block-diagonal sparsified
//                             model)
//   Flow::LoopRlc           — Section 5 loop-inductance model
//
// Every flow returns an AnalysisReport with the Table-1 columns: element
// counts, worst delay, worst skew, and run-time split into model-build and
// simulation phases.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuit/transient.hpp"
#include "geom/layout.hpp"
#include "govern/budget.hpp"
#include "loop/loop_model.hpp"
#include "peec/model_builder.hpp"

namespace ind::core {

enum class Flow {
  PeecRc,
  PeecRlcFull,
  PeecRlcTruncated,
  PeecRlcBlockDiag,
  PeecRlcShell,
  PeecRlcHalo,
  PeecRlcKMatrix,
  PeecRlcPrima,
  PeecRlcHier,  ///< Section 4 hierarchical models [16]: global nodes + per-block reduction
  LoopRlc,
};

/// The per-flow facts, one row per Flow in declaration order.
struct FlowInfo {
  Flow flow;
  /// Counter-safe identifier: "result.<key>.*" metric names, degradation
  /// strings and the option spec's `flow=` values.
  const char* key;
  const char* name;  ///< human-readable label (Table 1 rows)
  /// Next rung of the Section-4 degradation ladder, cheapest direction only:
  /// each rung costs strictly less (fewer mutuals, then no PEEC mesh at all),
  /// so a budget that tripped one rung can plausibly fit the next. Equal to
  /// `flow` for the cheapest flow of each family.
  Flow cheaper;
};

inline constexpr FlowInfo kFlowTable[] = {
    {Flow::PeecRc, "peec_rc", "PEEC (RC)", Flow::PeecRc},
    {Flow::PeecRlcFull, "peec_rlc", "PEEC (RLC)", Flow::PeecRlcBlockDiag},
    {Flow::PeecRlcTruncated, "peec_rlc_trunc", "PEEC (RLC, truncated)",
     Flow::LoopRlc},
    {Flow::PeecRlcBlockDiag, "peec_rlc_blockdiag", "PEEC (RLC, block-diag)",
     Flow::PeecRlcShell},
    {Flow::PeecRlcShell, "peec_rlc_shell", "PEEC (RLC, shell)",
     Flow::PeecRlcTruncated},
    {Flow::PeecRlcHalo, "peec_rlc_halo", "PEEC (RLC, halo)",
     Flow::PeecRlcShell},
    {Flow::PeecRlcKMatrix, "peec_rlc_kmatrix", "PEEC (RLC, K-matrix)",
     Flow::PeecRlcBlockDiag},
    {Flow::PeecRlcPrima, "peec_rlc_prima", "PEEC (RLC, PRIMA)",
     Flow::PeecRlcBlockDiag},
    {Flow::PeecRlcHier, "peec_rlc_hier", "PEEC (RLC, hierarchical)",
     Flow::PeecRlcBlockDiag},
    {Flow::LoopRlc, "loop_rlc", "LOOP (RLC)", Flow::LoopRlc},
};

constexpr const FlowInfo& flow_info(Flow flow) {
  return kFlowTable[static_cast<std::size_t>(flow)];
}

static_assert(
    [] {
      std::size_t k = 0;
      for (const FlowInfo& row : kFlowTable)
        if (static_cast<std::size_t>(row.flow) != k++) return false;
      return k == static_cast<std::size_t>(Flow::LoopRlc) + 1;
    }(),
    "kFlowTable must list every Flow once, in declaration order");

inline const char* flow_name(Flow flow) { return flow_info(flow).name; }
inline const char* flow_key(Flow flow) { return flow_info(flow).key; }

struct FlowParams {
  double truncation_ratio = 0.05;            ///< |M| >= r sqrt(Li Lj) kept
  double block_strip_width = geom::um(150.0);
  geom::Axis block_axis = geom::Axis::Y;     ///< strip direction for sections
  double shell_radius = geom::um(60.0);
  double kmatrix_ratio = 0.02;               ///< K-entry keep threshold
  std::size_t prima_order = 32;
  bool prima_on_block_diagonal = true;       ///< the combined technique of [4]
  std::size_t hier_order_per_block = 8;      ///< hierarchical flow
  double hier_strip_width = geom::um(150.0); ///< hierarchical block size
};

struct AnalysisOptions {
  Flow flow = Flow::PeecRlcFull;
  int signal_net = -1;  ///< required for Flow::LoopRlc
  peec::PeecOptions peec{};
  loop::LoopModelOptions loop{};
  circuit::TransientOptions transient{};
  FlowParams params{};
};

struct AnalysisReport {
  Flow flow = Flow::PeecRlcFull;            ///< flow actually delivered
  /// Flow the caller asked for. Differs from `flow` when a resource budget
  /// (IND_DEADLINE_MS / IND_MEM_BYTES / IND_WORK_BUDGET) cancelled the run
  /// and the analyzer degraded down the Section-4 fidelity ladder.
  Flow requested_flow = Flow::PeecRlcFull;
  /// One entry per ladder step taken, e.g. "peec_rlc->peec_rlc_blockdiag
  /// [work]". Empty when the requested flow ran to completion.
  std::vector<std::string> degradations;
  /// True when the transient was cancelled mid-integration: `time` /
  /// `sink_waveforms` hold the prefix computed before the budget tripped.
  bool waveform_truncated = false;
  circuit::Netlist::Counts counts;
  /// Unknowns of the integrated system: the MNA size, or for PRIMA and
  /// hierarchical flows the reduced order plus a voltage and a current per
  /// driver port.
  std::size_t unknowns = 0;
  std::size_t reduced_order = 0;   ///< PRIMA / hierarchical only

  double worst_delay = 0.0;        ///< seconds
  double best_delay = 0.0;
  double skew = 0.0;
  std::string worst_sink;
  double overshoot = 0.0;          ///< worst sink overshoot fraction

  double build_seconds = 0.0;      ///< extraction + model construction
  double solve_seconds = 0.0;      ///< transient simulation
  double total_seconds() const { return build_seconds + solve_seconds; }

  la::Vector time;                           ///< transient time axis
  std::vector<la::Vector> sink_waveforms;    ///< per sink
  std::vector<std::string> sink_names;

  /// Robustness diagnostics from the transient engine (condition estimates,
  /// recovery actions, BudgetExceeded markers), after the model build's own
  /// for PRIMA and hierarchical flows (Krylov deflation, gmin on G + s0 C).
  robust::SolveReport solve_report;
};

/// Runs one flow on a layout whose drivers/receivers define the experiment.
///
/// The call is resource-governed by its own govern::Run: when a work or
/// memory budget cancels the run, the analyzer retries at the next cheaper
/// Section-4 fidelity (dense PEEC -> block-diagonal -> shell -> truncation
/// -> loop RL) and records every step in AnalysisReport::degradations. A
/// deadline trip never retries — the time is already spent — so it surfaces
/// as govern::CancelledError, or as a truncated waveform if it lands inside
/// the transient stepper. An External cancel always surfaces as
/// CancelledError. Throws std::invalid_argument on degenerate layouts (no
/// segments / drivers / receivers). This overload runs under the env budget.
AnalysisReport analyze(const geom::Layout& layout,
                       const AnalysisOptions& options);

/// The same under the caller's run, which any thread may cancel().
AnalysisReport analyze(const geom::Layout& layout,
                       const AnalysisOptions& options, govern::Run& run);

}  // namespace ind::core
