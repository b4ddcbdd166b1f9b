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
//
// The step itself allocates nothing. The companion matrix is compressed
// once (CompanionMatrix below) and a driver transition refills its values
// in place; each step reuses one set of buffers for b(t), C·x, G(t)·x, the
// driver state, the previous x and the solve's scratch, and writes the
// solution into x through SparseLu's buffer-taking solve. The DC matrix and
// the dt-halving rung's matrices are one-off and keep the plain conversion.
#pragma once

#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "la/sparse.hpp"
#include "robust/diagnostics.hpp"

namespace ind::circuit {

/// The companion matrix G + scale·C + G_d(t) of a descriptor system. Its
/// triplets are G's, then the drivers' stamps at t (stamp_drivers), then
/// C's scaled by `scale`. That (row, col) sequence is the same at every t,
/// so the matrix is compressed once (la::CscAssembly) and at(t) refills its
/// values in place: no triplet copy, sort or compress per driver
/// transition, and bitwise the matrix CscMatrix(TripletMatrix) builds from
/// the same stamps. `sys` must outlive the object.
class CompanionMatrix {
 public:
  CompanionMatrix(const DescriptorSystem& sys, double scale, double t);
  /// Restamps the drivers at t and refills the values in place.
  const la::CscMatrix& at(double t);
  /// The matrix at the last t.
  const la::CscMatrix& matrix() const { return a_; }

 private:
  const DescriptorSystem* sys_;
  double scale_;
  la::TripletMatrix drivers_;  // the drivers' stamps at the last t
  la::CscAssembly plan_;
  la::CscMatrix a_;
};

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
