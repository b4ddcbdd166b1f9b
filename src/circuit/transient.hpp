// Transient analysis: trapezoidal integration of a descriptor system
// G x + C x' + G_d(t) x = B u(t) (circuit/mna.hpp), the only time
// integrator in the repo. A netlist's MNA system and a reduced model
// co-simulated with its switched drivers (mor::reduced_system, the combined
// flow of [4]) are both integrated here, with the same guards: a budget
// poll per step, the transient_step fault site, dt-halving retries, and a
// SolveReport with the Hager condition estimate of the DC and first
// companion factors.
//
// The companion matrix A = G + (2/h)C is factorised once and reused across
// steps; the switched drivers are the only time-varying conductances, so the
// engine refactorises only while a driver is mid-transition. Every matrix
// factors through the guarded sparse LU (AMD-ordered Gilbert-Peierls behind
// the robust fallback ladder), which serves the grid-sized RC / sparsified
// models of Table 1, the dense q x q blocks of reduced models and the small
// examples alike.
//
// Every sparse analysis takes the driver-stamped unknowns (each driver's
// out, vdd and gnd) as `last`, so AMD orders them at the end. A transition
// keeps the pattern and changes only those columns, so the held factor's
// refactor restarts at the first driver column: it recomputes at most three
// columns per driver, bitwise-identical to factoring the matrix afresh with
// the same order (IND_SPARSE_NO_REFACTOR=1 runs that oracle).
#pragma once

#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "robust/diagnostics.hpp"

namespace ind::circuit {

struct TransientOptions {
  double t_stop = 1e-9;
  double dt = 1e-12;
};

struct TransientResult {
  la::Vector time;
  std::vector<la::Vector> samples;  ///< one waveform per output
  std::vector<std::string> names;   ///< output names

  // Run statistics (the paper's Table 1 reports run-times per model).
  double factor_seconds = 0.0;
  double step_seconds = 0.0;
  std::size_t refactor_count = 0;
  std::size_t unknowns = 0;
  /// True when a resource budget (deadline / memory / work) cancelled the
  /// integration mid-run: `time`/`samples` hold the prefix computed so far
  /// and the report carries a BudgetExceeded action. The partial waveform
  /// is usable but must be surfaced as truncated, never as complete.
  bool truncated = false;

  /// Robustness diagnostics: the condition estimate of the DC and first
  /// companion factors, every fallback action taken (gmin regularisation,
  /// dense fallback, dt halving), and the final status. A Failed status
  /// means the integration stopped early and `time`/`samples` hold the
  /// prefix computed so far.
  robust::SolveReport report;

  /// Waveform lookup by output name; throws if absent.
  const la::Vector& waveform(const std::string& name) const;
};

/// Integrates `system` from its DC operating point at t = 0 to t_stop,
/// recording one waveform per output. Throws std::invalid_argument on a
/// non-positive dt or t_stop, an empty system, or a driver, output or B
/// column that does not fit it.
TransientResult transient(const DescriptorSystem& system,
                          const TransientOptions& options);

/// The netlist's MNA system (Mna::system) with one output per probe.
TransientResult transient(const Netlist& netlist,
                          const std::vector<Probe>& probes,
                          const TransientOptions& options);

}  // namespace ind::circuit
