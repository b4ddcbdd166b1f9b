// Resource governance: per-analysis runs, their budgets, cooperative
// cancellation and the checkpoint hook the long-running kernels poll.
//
// A RunBudget carries up to three independent limits:
//   * deadline_ms  — wall-clock budget for the whole analyze() call
//                    (IND_DEADLINE_MS), armed by the run's first attempt.
//   * mem_bytes    — cap on govern::tracked_bytes(), the live dense/sparse
//                    matrix footprint (IND_MEM_BYTES). Tracked bytes are
//                    process-wide, so this cap sees every live analysis.
//   * work_units   — cap on abstract work units the run accumulates through
//                    govern::checkpoint() (IND_WORK_BUDGET). This is the
//                    deterministic budget used by tests and CI.
//
// Per-call runs. A Run owns one analysis's budget, cancel token and work
// counter; core::analyze installs it on the calling thread for the call, and
// runtime::detail::run_chunks carries it to the pool threads running the
// call's chunks. Concurrent analyses on one pool keep separate budgets.
//
// Determinism contract. checkpoint() is called only at deterministic chunk
// boundaries — per parallel_for chunk with a unit count that is a pure
// function of the chunk's index range, per factorisation column, per
// transient step, per Arnoldi iteration. The work-unit total of a completed
// stage is therefore a pure function of the problem shape, independent of
// thread count or scheduling. A work budget trips iff the stage's running
// total crosses the cap, and since every interleaving accumulates the same
// multiset of unit counts, *whether* a stage trips is identical at any
// thread count. After a trip the partial result is discarded and the ladder
// re-runs the analysis at a cheaper fidelity with the work counter reset
// (Run::begin_attempt), so the delivered result is bitwise reproducible.
// Deadline and memory budgets use the same machinery but are inherently
// timing-dependent; only IND_WORK_BUDGET carries the bitwise guarantee.
//
// Cost when idle: checkpoint() with no budget armed is three relaxed atomic
// increments, a thread-local read and three relaxed loads — no clock read,
// no lock. The process-wide totals (checkpoints, work units) count every
// call, inside a run or not; the estimated total overhead is published as
// govern.overhead_est_ns so the perf guard can enforce the <2% contract.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "runtime/cancel.hpp"

namespace ind::govern {

/// Why a run was cancelled. Values double as runtime::CancelToken causes
/// (None must stay 0 == "not cancelled").
enum class BudgetKind : int {
  None = 0,
  Deadline = 1,  ///< IND_DEADLINE_MS wall-clock deadline passed
  Memory = 2,    ///< tracked matrix bytes exceeded IND_MEM_BYTES
  Work = 3,      ///< deterministic work units exceeded IND_WORK_BUDGET
  External = 4,  ///< cancelled from outside (embedding service shutdown)
};

const char* to_string(BudgetKind kind);

struct RunBudget {
  std::uint64_t deadline_ms = 0;  ///< 0 = no deadline
  std::uint64_t mem_bytes = 0;    ///< 0 = no memory cap
  std::uint64_t work_units = 0;   ///< 0 = no work budget

  bool any() const { return deadline_ms || mem_bytes || work_units; }

  /// IND_DEADLINE_MS / IND_MEM_BYTES / IND_WORK_BUDGET, read once per
  /// process via the shared env helpers (invalid values warn and count as
  /// unset): the budget of an analyze() call that brings no run of its own.
  static const RunBudget& from_env();
};

/// Thrown by instrumented kernels when their run is cancelled mid-stage.
/// core::analyze catches it at the ladder level and retries at a cheaper
/// fidelity; it escapes an analyze() call only for deadline/external trips
/// (retrying cannot recover elapsed wall-clock) or an exhausted ladder.
class CancelledError : public std::runtime_error {
 public:
  CancelledError(BudgetKind kind, const std::string& where)
      : std::runtime_error(std::string("cancelled [") + to_string(kind) +
                           "] in " + where),
        kind_(kind) {}
  BudgetKind kind() const { return kind_; }

 private:
  BudgetKind kind_;
};

/// One governed analysis (see "Per-call runs" above): its budget, cancel
/// token with the sticky External latch, work counter and deadline.
class Run {
 public:
  explicit Run(const RunBudget& budget = {}) : budget_(budget) {}

  /// Starts a fidelity attempt: zeroes the work counter and clears the
  /// cancel token. The first attempt arms the deadline (if any); later ones
  /// keep it — a run that is out of wall-clock time stays out of it. An
  /// External cancel is sticky: the ladder must not resurrect a run its
  /// owner abandoned.
  void begin_attempt();

  /// Records `kind` as the cancel cause (first cause wins), from any thread.
  void cancel(BudgetKind kind);

  BudgetKind cancel_kind() const {
    return static_cast<BudgetKind>(token_.kind());
  }
  bool cancelled() const { return token_.cancelled(); }
  runtime::CancelToken* cancel_token() { return &token_; }

  /// Work units accumulated since the last begin_attempt().
  std::uint64_t work_units() const {
    return work_.load(std::memory_order_relaxed);
  }

 private:
  friend bool checkpoint(std::uint64_t units);

  const RunBudget budget_;
  runtime::CancelToken token_;
  /// Set by cancel(External), never cleared: keeps an abandonment alive
  /// across begin_attempt()'s token reset even when another cause occupied
  /// the token's first-cause slot.
  std::atomic<bool> external_{false};
  std::atomic<std::uint64_t> work_{0};
  std::atomic<bool> deadline_armed_{false};
  std::chrono::steady_clock::time_point deadline_at_{};
};

/// Installs `run` as the calling thread's run for the scope's lifetime and
/// restores the previous one (normally none) on exit.
class RunScope {
 public:
  explicit RunScope(Run& run);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  void* previous_;
};

/// The calling thread's run, or nullptr outside any analysis.
Run* current_run();

/// The current run's token, for ParallelOptions.cancel in instrumented
/// kernels; nullptr (run to completion) outside a run.
runtime::CancelToken* cancel_token();

/// The polling hook. Instrumented kernels call this at every deterministic
/// chunk boundary with a unit count that is a pure function of the chunk;
/// returns true when the current run has been cancelled (by this call or
/// earlier). Outside a run it only counts and never trips. Callers stop
/// cleanly: parallel bodies return and let run_chunks skip the remaining
/// chunks via the token; serial loops throw CancelledError or break to a
/// truncated-result path.
bool checkpoint(std::uint64_t units = 1);

/// Throws CancelledError when the current run has been cancelled. Use after a
/// parallel_for that may have drained early, or before starting an
/// expensive stage.
void throw_if_cancelled(const char* where);

}  // namespace ind::govern
