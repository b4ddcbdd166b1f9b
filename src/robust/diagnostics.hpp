// Structured numerical-robustness diagnostics.
//
// Every guarded solver entry point (dense/sparse factorisation, transient,
// AC, PRIMA, ladder fit) fills a SolveReport instead of aborting on the
// first singular pivot or non-finite intermediate: the report carries the
// final status, a condition estimate of the factored operator, the recovery
// actions the fallback ladder took, and — via record() — mirrors all of it
// into the MetricsRegistry so robustness events land in BENCH_<name>.json
// next to the timing data.
//
// Every fallback is deterministic (fixed escalation schedule, no RNG), so
// the runtime's bitwise-determinism oracles keep holding: a recovered run on
// a well-posed problem reproduces the unperturbed result exactly when the
// first ladder rung (a plain retry) clears the fault.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ind::robust {

/// Outcome of a guarded solve, ordered by severity (merge keeps the worst).
enum class SolveStatus {
  Ok,            ///< clean solve, no fallback action taken
  Recovered,     ///< succeeded after one or more fallback actions
  NonConverged,  ///< iteration finished without meeting its tolerance
  Failed,        ///< every ladder rung exhausted; result is unusable
};

/// What a fallback-ladder rung did.
enum class RecoveryKind {
  Retry,                ///< re-ran the failing operation unchanged
  GminRegularization,   ///< added g to every system diagonal and refactored
  DenseFallback,        ///< sparse LU failed; fell back to dense LU
  DtHalving,            ///< re-integrated a transient step at reduced dt
  KrylovDeflation,      ///< dropped a non-finite Krylov block column
  DampedRestart,        ///< Levenberg-Marquardt damping of a Newton step
  ArtifactRecompute,    ///< corrupt cached artifact discarded; recomputed
  BudgetExceeded,       ///< resource budget tripped; degraded or truncated
  GmresRestart,         ///< stagnated GMRES re-run with a larger Krylov space
};

/// How a sandboxed serve worker process died (or failed), classified from
/// its waitpid status by serve::classify_worker_exit. Part of the recovery
/// taxonomy: the supervisor turns these into structured replies (retry on a
/// sibling, quarantine, WorkerCrashed) instead of letting a tenant's crash
/// take down the server.
enum class CrashKind {
  None = 0,   ///< worker is fine (flight answered normally)
  Signal,      ///< died on an uncaught signal (SIGSEGV, SIGABRT, SIGBUS, ...)
  OomKill,     ///< SIGKILL — the kernel OOM killer's signature
  RlimitCpu,   ///< SIGXCPU — per-request RLIMIT_CPU sandbox trip
  RlimitMem,   ///< worker hit std::bad_alloc under RLIMIT_AS and self-exited
  ExitError,   ///< exited with an unclassified non-zero (or torn-pipe zero)
};

const char* to_string(SolveStatus status);
const char* to_string(RecoveryKind kind);
const char* to_string(CrashKind kind);

/// One fallback action, in the order taken.
struct RecoveryAction {
  RecoveryKind kind = RecoveryKind::Retry;
  int attempt = 0;         ///< 0-based escalation rung within its ladder
  double magnitude = 0.0;  ///< gmin siemens, substep dt, ... (0 if n/a)
  std::string where;       ///< site, e.g. "transient step 12"
};

/// Structured result of a guarded numerical operation.
struct SolveReport {
  SolveStatus status = SolveStatus::Ok;
  /// 1-norm condition estimate of the (last successfully) factored matrix
  /// (LU pivot growth x Hager estimator); 0 = not computed.
  double condition_estimate = 0.0;
  /// max |U| / max |A| of the factorisation; 0 = not computed.
  double pivot_growth = 0.0;
  /// Relative residual of the final solve; negative = not computed.
  double residual_norm = -1.0;
  /// Fallback actions in the order they were taken.
  std::vector<RecoveryAction> actions;
  /// Human-readable failure / recovery detail.
  std::string detail;

  bool ok() const { return status == SolveStatus::Ok; }
  /// True when the result can be consumed (possibly after recovery).
  bool usable() const {
    return status == SolveStatus::Ok || status == SolveStatus::Recovered;
  }
  bool failed() const { return status == SolveStatus::Failed; }

  /// Raises the status to at least `s` (statuses only ever escalate).
  void raise_status(SolveStatus s);

  /// Appends an action and escalates the status to at least Recovered.
  void add_action(RecoveryKind kind, int attempt, double magnitude,
                  std::string where);

  /// Absorbs a sub-operation's report: worst status wins, actions append,
  /// condition/pivot-growth keep the maximum, residual the last computed.
  void merge(const SolveReport& sub);

  /// Publishes the report into the MetricsRegistry under
  ///   robust.<site>.solves / .recovered / .nonconverged / .failed,
  ///   robust.action.<kind>  (one count per action taken), and
  ///   robust.<site>.max_log10_cond (high-water mark).
  /// BENCH_<name>.json picks these up with every other counter.
  void record(std::string_view site) const;

  /// Compact JSON object (status, cond, growth, residual, action counts).
  std::string to_json() const;
};

}  // namespace ind::robust
