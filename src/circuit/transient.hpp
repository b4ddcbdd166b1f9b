// Transient analysis: trapezoidal integration of G(t) x + C x' = b(t).
//
// The companion matrix A = G + (2/h)C is factorised once and reused across
// steps; the switched drivers are the only time-varying conductances, so the
// engine refactorises only while a driver is mid-transition. Every matrix
// factors through the guarded sparse LU (AMD-ordered Gilbert-Peierls behind
// the robust fallback ladder), which serves the grid-sized RC / sparsified
// models of Table 1 and the small examples alike.
//
// Every sparse analysis takes the driver-stamped nodes (each driver's out,
// vdd and gnd) as `last`, so AMD orders them at the end. A transition keeps
// the pattern and changes only those columns, so the held factor's refactor
// restarts at the first driver column: it recomputes at most three columns
// per driver, bitwise-identical to factoring the matrix afresh with the
// same order (IND_SPARSE_NO_REFACTOR=1 runs that oracle).
#pragma once

#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "robust/diagnostics.hpp"

namespace ind::circuit {

enum class ProbeKind {
  NodeVoltage,
  InductorCurrent,
  VSourceCurrent,
  DriverPullUpCurrent,   ///< current from vdd rail into the output
  DriverPullDownCurrent  ///< current from the output into the gnd rail
};

struct Probe {
  ProbeKind kind = ProbeKind::NodeVoltage;
  std::size_t index = 0;  ///< node id / inductor idx / vsource idx / driver idx
  std::string name;
};

struct TransientOptions {
  double t_stop = 1e-9;
  double dt = 1e-12;
};

struct TransientResult {
  la::Vector time;
  std::vector<la::Vector> samples;  ///< one waveform per probe
  std::vector<std::string> names;   ///< probe names

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

  /// Waveform lookup by probe name; throws if absent.
  const la::Vector& waveform(const std::string& name) const;
};

TransientResult transient(const Netlist& netlist,
                          const std::vector<Probe>& probes,
                          const TransientOptions& options);

}  // namespace ind::circuit
