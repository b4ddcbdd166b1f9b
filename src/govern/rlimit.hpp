// Budget -> OS sandbox mapping for the serve worker processes.
//
// A worker lane (tools/ind_worker) runs one request at a time in its own
// process; before each request it derives hard OS backstops from the
// *effective* RunBudget (the per-request budget after the server's caps):
//
//   * RLIMIT_AS  = mem_bytes + as_slack          (0 mem budget = unlimited)
//   * RLIMIT_CPU = cpu-used-so-far + ceil(deadline_ms / 1000) + cpu_slack
//                                                (0 deadline   = unlimited)
//
// The cooperative govern::checkpoint() polls remain the first line of
// defence — they trip deterministically and degrade gracefully. The rlimits
// are the second line for the failure modes checkpoints cannot catch: a
// runaway allocation inside a kernel (malloc returns null -> std::bad_alloc
// -> the worker exits with kWorkerOomExitCode) and a wedged loop that never
// polls a checkpoint (the kernel delivers SIGXCPU). Both surface to the
// supervisor as a classified robust::CrashKind instead of a server death.
//
// Only the *soft* limits move (lowering and re-raising a soft limit below
// an unchanged hard limit is always permitted for unprivileged processes),
// so a long-lived worker can relax back to the hard ceiling between
// requests.
#pragma once

#include <cstdint>

#include "govern/budget.hpp"

namespace ind::govern {

/// Per-request OS limits derived from an effective RunBudget. Zero means
/// "leave that limit alone".
struct WorkerRlimits {
  std::uint64_t as_bytes = 0;     ///< absolute RLIMIT_AS soft value
  std::uint64_t cpu_seconds = 0;  ///< RLIMIT_CPU headroom beyond CPU used

  bool any() const { return as_bytes != 0 || cpu_seconds != 0; }
};

/// Maps the effective budget onto rlimit values. `as_slack_bytes` covers the
/// worker's code/heap baseline on top of the tracked-matrix budget;
/// `cpu_slack_seconds` covers assembly/serde time around the governed
/// kernels so the cooperative deadline almost always fires first.
WorkerRlimits worker_rlimits(const RunBudget& effective,
                             std::uint64_t as_slack_bytes,
                             std::uint64_t cpu_slack_seconds);

/// Lowers the soft limits for the current process per `limits` (RLIMIT_CPU
/// is set to current process CPU usage + cpu_seconds). Values are clamped
/// to the hard limit. Returns false when a setrlimit call failed.
bool apply_worker_rlimits(const WorkerRlimits& limits);

/// Raises the soft limits back to the hard limits (between requests).
void relax_worker_rlimits();

/// Exit code a worker uses when an allocation fails under RLIMIT_AS: the
/// heap cannot be trusted for a structured reply, so it self-exits and the
/// supervisor classifies the death as CrashKind::RlimitMem.
inline constexpr int kWorkerOomExitCode = 77;

/// Installs a new-handler that _exits with kWorkerOomExitCode, so a failed
/// allocation anywhere in a worker ends the process instead of throwing
/// std::bad_alloc into code that would answer it as an error.
void exit_on_allocation_failure();

}  // namespace ind::govern
