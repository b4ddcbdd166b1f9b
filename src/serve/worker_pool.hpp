// Process-isolated worker lanes for the analysis server.
//
// With IND_SERVE_WORKERS=N > 0 the server stops running core::analyze in
// its own address space: a WorkerPool fork/execs N copies of the
// `ind_worker` binary, each connected back over a socketpair speaking the
// existing length-prefixed frame protocol (AnalyzeRequest in, AnalyzeResponse
// or Error out, one flight at a time per worker). Every worker applies
// per-request RLIMIT_AS / RLIMIT_CPU soft limits derived from the flight's
// RunBudget (already clamped to the server caps at admission;
// govern/rlimit.hpp) around serve::run_request, the same execution path the
// in-process executor calls. So a segfault, runaway allocation or wedged
// loop inside any kernel kills one worker process — never the server, never
// another tenant's flight.
//
// Crash containment contract:
//   * A worker death mid-flight is classified from its waitpid status into
//     the robust::CrashKind taxonomy (classify_worker_exit) and the flight
//     is retried exactly once on a sibling worker. Kernels are bitwise
//     deterministic, so a successful retry returns the identical result
//     bytes the first attempt would have produced.
//   * A request fingerprint that kills `poison_threshold` workers in a row
//     is quarantined: the pool answers ErrorCode::PoisonedRequest instantly
//     instead of crash-looping the fleet. A success resets the fingerprint's
//     kill count (transient deaths — a chaos SIGKILL — don't poison).
//   * Dead slots respawn on a monitor thread with per-slot exponential
//     backoff (50 ms doubling to 5 s, reset by a completed flight), so a
//     crash storm cannot turn into a fork bomb.
//
// The fault site robust::fault::Site::WorkerExec fires in the *supervisor*,
// right after a flight is written to a worker: when selected, the supervisor
// kills that worker with SIGSEGV. Firing on
// dispatch keeps the per-site call index deterministic — "worker_exec@0"
// kills exactly the first dispatch and the sibling retry observes index 1 —
// which is how the crash-retry tests assert bitwise-identical recovery.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "robust/diagnostics.hpp"
#include "serve/codec.hpp"
#include "serve/health.hpp"
#include "serve/protocol.hpp"
#include "store/hash.hpp"

namespace ind::serve {

/// Maps a waitpid() status to the crash taxonomy: SIGXCPU = the RLIMIT_CPU
/// sandbox tripping, SIGKILL = the OOM killer's signature, any other fatal
/// signal = Signal; a self-exit with govern::kWorkerOomExitCode = bad_alloc
/// under RLIMIT_AS; any other exit (including a clean 0 while a flight was
/// outstanding) = ExitError.
robust::CrashKind classify_worker_exit(int wstatus);

class WorkerPool {
 public:
  struct Config {
    std::size_t workers = 0;
    /// Path to the ind_worker binary; empty = "<this executable's dir>/ind_worker".
    std::string worker_bin;
    /// Worker kills by one fingerprint before it is quarantined (>= 1).
    int poison_threshold = 2;
    std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  };

  explicit WorkerPool(Config config);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawns the worker fleet and the respawn monitor. Throws
  /// std::runtime_error when no worker could be started at all. A worker
  /// is SIGKILLed when the thread that spawned it exits, so call this from
  /// a thread that outlives the pool.
  void start();

  /// Stops the monitor, closes every worker pipe (workers exit on EOF) and
  /// reaps them, escalating to SIGKILL after a short grace. Idempotent.
  void stop();

  /// Runs one flight on an idle worker (blocking until one is free),
  /// handling crash classification, the single sibling retry and poison
  /// quarantine. `fp` is request_fingerprint(req). A worker's structured
  /// Error frame comes back as the code and detail run_request produced.
  Outcome run(const store::Digest& fp, const Request& req);

  /// True when `fp` is quarantined — the server's admission path answers
  /// PoisonedRequest without queueing.
  bool poisoned(const store::Digest& fp) const;

  /// Snapshot for health replies / serve.worker.* counters.
  struct PoolHealth {
    std::uint64_t workers = 0;
    std::uint64_t alive = 0;
    std::uint64_t respawning = 0;
    std::uint64_t crashes_signal = 0;
    std::uint64_t crashes_oom = 0;
    std::uint64_t crashes_rlimit = 0;
    std::uint64_t crash_retries = 0;
    std::uint64_t respawns = 0;
    std::uint64_t quarantined = 0;
    std::vector<std::uint64_t> pids;
  };
  PoolHealth health() const;

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;  ///< supervisor end of the socketpair
    enum class State { Stopped, Idle, Busy, Dead } state = State::Stopped;
    std::uint64_t backoff_ms = 0;
    std::chrono::steady_clock::time_point respawn_at{};
  };

  bool spawn_locked(Worker& w);
  void mark_dead_locked(Worker& w, int wstatus);
  void record_crash_locked(robust::CrashKind kind);
  int acquire_idle_slot();
  void monitor_loop();

  Config config_;
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;     ///< a slot became Idle / stopping
  std::condition_variable monitor_cv_;  ///< wake the monitor early
  std::vector<Worker> slots_;
  std::thread monitor_;
  bool running_ = false;
  bool stopping_ = false;
  std::uint64_t next_job_id_ = 1;

  /// Consecutive worker kills per fingerprint hex; erased on success.
  std::unordered_map<std::string, int> kill_counts_;
  std::unordered_set<std::string> quarantine_;

  // Pool-lifetime tallies (mirrored into serve.worker.* counters as they
  // happen; kept here so health snapshots don't need the registry).
  std::uint64_t crashes_signal_ = 0;
  std::uint64_t crashes_oom_ = 0;
  std::uint64_t crashes_rlimit_ = 0;
  std::uint64_t crash_retries_ = 0;
  std::uint64_t respawns_ = 0;
};

}  // namespace ind::serve
