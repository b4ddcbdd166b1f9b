// Multi-tenant analysis server: accepts concurrent AnalyzeRequests over the
// serve/ wire protocol and multiplexes them onto the process runtime.
//
// Architecture (one process, N connections):
//
//   accept thread ──> reader thread per connection
//                        │  handshake, frame decode, request decode
//                        │  response-cache short-circuit  ── reply Cache
//                        │  in-flight dedup (fingerprint) ── attach waiter
//                        ▼
//                  FairScheduler (per-client bounded FIFOs, round-robin)
//                        │  full queue -> Busy reply (load shed)
//                        ▼
//                  executor lane ── serve::run_request in-process, or
//                        │          WorkerPool::run -> ind_worker -> run_request
//                        ▼
//                  respond to every waiter; store result in the cache
//
// In-process mode (IND_SERVE_WORKERS=0) analyses execute one at a time, in
// the scheduler's fair order: the parallelism of a single core::analyze
// already saturates the pool (parallel_for fans each kernel out across every
// worker), and the memory budget is checked against govern::tracked_bytes(),
// which is process-wide, so a second concurrent analysis would spend the
// first one's memory cap. Each flight still runs under its own govern::Run.
// Concurrency at the request level comes from pipelined I/O, from in-flight
// dedup (N identical requests cost one computation) and from the response
// cache (repeat requests never reach the executor). Because every kernel is
// bitwise-deterministic at any IND_THREADS, the RESULT block for a given
// request body is byte-identical no matter how it was served.
//
// Worker mode (IND_SERVE_WORKERS=N > 0): N executor lanes each dispatch
// flights to their own sandboxed ind_worker process through a WorkerPool
// (serve/worker_pool.hpp) — a crash, OOM kill or rlimit trip inside any
// kernel costs one worker process and one classified retry, never the
// server. Each worker process has its own tracked bytes, so N analyses run
// concurrently without sharing budget state. Both modes execute through the
// one serve::run_request (codec.hpp), so they answer the same error codes and
// details, apply the same outbound frame cap, and produce bitwise-identical
// RESULT blocks from the same request bytes.
//
// Per-request governance: at admission the request's RunBudget is clamped
// field-wise by the server caps (IND_SERVE_DEADLINE_MS / IND_SERVE_MEM_BYTES
// / IND_SERVE_WORK_BUDGET; a tenant can tighten, never loosen), and that
// clamped request is the one fingerprinted, dispatched and run. Dedup and
// the response cache key on it, so the key names the run that actually
// happens: requests that clamp to the same budget share one computation and
// one cache entry. Work/memory trips degrade down the Section-4 fidelity
// ladder inside analyze() and the response carries the degradation trail;
// a deadline trip answers DeadlineExceeded. A client disconnect removes its
// waiters, and when a running flight has no waiters left its govern::Run is
// cancelled (queued orphans are skipped at pop; a worker-mode flight runs on
// in its worker process and warms the cache).
//
// Slow/wedged peers: every accepted socket carries SO_SNDTIMEO
// (IND_SERVE_SEND_TIMEOUT_MS, default 10 s); a send that makes no progress
// for the whole window marks the peer dead, so a client that stops reading
// can stall the executor for at most one timeout instead of forever.
//
// Wedged executor: an optional watchdog thread (IND_SERVE_WATCHDOG_MS)
// samples the executor's progress counter and, when it stalls across K
// intervals while work is queued, trips graceful degradation — new work is
// shed with Busy (`serve.watchdog_sheds`), cache hits and dedup attaches
// still drain, and IND_SERVE_WATCHDOG_ABORT=1 turns the trip into a
// fail-stop so an orchestrator restarts the process. HealthRequest frames
// are answered inline by the reader with a HealthStatus snapshot, so health
// probes work even while the executor is wedged. See serve/health.hpp.
//
// Graceful shutdown (SIGINT/SIGTERM in ind_served): admission stops (new
// requests get Busy/ShuttingDown), queued work drains through the executor
// for up to IND_SERVE_DRAIN_MS, anything still pending past the deadline is
// answered ShuttingDown — the waiters of running flights too — and the
// running flights' runs are cancelled; the remaining sockets are then shut
// down *before* the worker threads are joined (a blocked send fails fast
// instead of wedging the join), and the listener exits 0. Nothing is persisted: the response
// cache lives in memory only. With IND_CACHE_DIR set, the model artifacts
// behind each answer (extractions, PEEC models, PRIMA reductions, K-matrix
// sparsifications) are on disk, so a restarted server recomputes only the
// cheap tail of each first repeat.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "govern/budget.hpp"
#include "serve/codec.hpp"
#include "serve/health.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/worker_pool.hpp"

namespace ind::serve {

struct ServerConfig {
  /// Unix-domain socket path; when empty the server listens on TCP.
  std::string uds_path;
  /// TCP listen address. Port 0 binds an ephemeral port (see Server::port).
  std::string host = "127.0.0.1";
  int tcp_port = 0;

  std::size_t per_client_queue = 64;   ///< IND_SERVE_CLIENT_QUEUE
  std::size_t max_queue = 1024;        ///< IND_SERVE_MAX_QUEUE
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;  ///< IND_SERVE_MAX_FRAME_BYTES
  /// Server-side budget caps; request budgets are clamped to these.
  govern::RunBudget budget_caps;       ///< IND_SERVE_{DEADLINE_MS,MEM_BYTES,WORK_BUDGET}
  std::uint64_t drain_ms = 5000;       ///< IND_SERVE_DRAIN_MS
  /// SO_SNDTIMEO on every accepted socket: a send that makes no progress
  /// for this long marks the peer dead instead of wedging the sender (the
  /// executor answers waiters with blocking writes — one client that stops
  /// reading must not starve every other tenant). 0 disables the timeout.
  std::uint64_t send_timeout_ms = 10'000;  ///< IND_SERVE_SEND_TIMEOUT_MS
  /// Response cache capacity in entries (in memory, LRU); 0 disables it.
  std::size_t result_cache_entries = 512;  ///< IND_SERVE_RESULT_CACHE

  /// Executor watchdog (see serve/health.hpp). Sampling interval in ms;
  /// 0 (the default) disables the watchdog thread entirely.
  std::uint64_t watchdog_interval_ms = 0;  ///< IND_SERVE_WATCHDOG_MS
  /// Consecutive no-progress samples (while work is queued) before the
  /// executor is declared wedged and new work is shed with Busy.
  int watchdog_stall_intervals = 3;        ///< IND_SERVE_WATCHDOG_INTERVALS
  /// Fail-stop on a watchdog trip (std::abort) so an orchestrator restarts
  /// the process instead of letting it limp along shedding forever.
  bool watchdog_abort = false;             ///< IND_SERVE_WATCHDOG_ABORT

  /// Process isolation (serve/worker_pool.hpp). 0 keeps the single
  /// in-process executor; N > 0 fork/execs N sandboxed ind_worker processes
  /// and runs N executor lanes, one flight per worker at a time.
  std::size_t workers = 0;                   ///< IND_SERVE_WORKERS
  /// Worker binary; empty = "<server executable's dir>/ind_worker".
  std::string worker_bin;                    ///< IND_SERVE_WORKER_BIN
  /// Worker kills by one request fingerprint before it is quarantined.
  int poison_threshold = 2;                  ///< IND_SERVE_POISON_THRESHOLD

  /// Test hook: runs on the executor thread after a flight is popped and
  /// *before* waiters are checked or the analysis starts. Lets tests hold
  /// the executor deterministically while they pile up duplicate requests
  /// or disconnect clients.
  std::function<void()> before_execute;

  /// Reads the IND_SERVE_* knobs (listed above) over built-in defaults.
  static ServerConfig from_env();
};

/// The admission clamp: each field of `requested` tightened by the matching
/// cap. A 0 cap leaves the field as requested; a 0 (unlimited) request
/// takes the cap.
govern::RunBudget clamp_budget(const govern::RunBudget& requested,
                               const govern::RunBudget& caps);

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and launches the accept + executor threads. Throws
  /// std::runtime_error when the address cannot be bound.
  void start();

  /// Bound TCP port (valid after start() on a TCP config).
  int port() const { return port_; }

  /// True between start() and the end of shutdown().
  bool running() const { return running_.load(); }

  /// Graceful stop as documented in the header comment. Idempotent;
  /// blocks until every thread is joined.
  void shutdown();

  /// Point-in-time health snapshot (also answered to HealthRequest frames).
  HealthStatus snapshot_health();

  /// True while the watchdog considers the executor wedged (new work is
  /// being shed with Busy until progress resumes).
  bool degraded() const { return degraded_.load(); }

 private:
  struct Connection;
  struct InFlight;
  struct CacheEntry;
  using FlightPtr = std::shared_ptr<InFlight>;

  void accept_loop();
  void connection_loop(std::shared_ptr<Connection> conn);
  /// Handshake + frame loop; early returns are fine — connection_loop runs
  /// the disconnect/retire cleanup on every exit path.
  void connection_body(const std::shared_ptr<Connection>& conn);
  void handle_request(const std::shared_ptr<Connection>& conn,
                      const std::vector<std::uint8_t>& payload);
  void disconnect(const std::shared_ptr<Connection>& conn);
  /// Joins reader threads whose connection_loop has returned (called from
  /// the accept loop on every new connection, and from shutdown()).
  void reap_readers();
  void executor_loop();
  void execute(const FlightPtr& flight);
  void watchdog_loop();

  /// Response-cache probe (refreshes the entry's LRU position; null on a
  /// miss) and insert. Caller holds state_mutex_.
  const CacheEntry* cache_probe(const std::string& key);
  void cache_store(const std::string& key,
                   const std::vector<std::uint8_t>& result,
                   double build_seconds, double solve_seconds);

  ServerConfig config_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  FairScheduler<FlightPtr> scheduler_;

  std::mutex state_mutex_;
  std::unordered_map<std::string, FlightPtr> inflight_;  ///< key: digest hex
  /// Flights currently executing across all lanes (shutdown's idle check).
  std::size_t running_flights_ = 0;  ///< guarded by state_mutex_

  /// Process-isolated worker lanes (IND_SERVE_WORKERS > 0), else null.
  std::unique_ptr<WorkerPool> pool_;

  struct CacheEntry {
    std::vector<std::uint8_t> result;
    double build_seconds = 0.0;
    double solve_seconds = 0.0;
    std::list<std::string>::iterator lru;  ///< position in lru_ (MRU front)
  };
  std::unordered_map<std::string, CacheEntry> response_cache_;
  std::list<std::string> lru_;

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Connection>> conns_;  ///< live connections only
  std::uint64_t next_conn_id_ = 1;

  /// Executor liveness: bumped whenever the executor makes observable
  /// progress (popping a flight, finishing an analysis). The watchdog trips
  /// when this stalls across K samples while the scheduler holds work.
  std::atomic<std::uint64_t> progress_ticks_{0};
  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> watchdog_trips_{0};
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  std::thread watchdog_thread_;

  std::thread accept_thread_;
  /// One lane in-process; IND_SERVE_WORKERS lanes in worker mode (each lane
  /// blocks on its own worker process, so N lanes = N concurrent analyses).
  std::vector<std::thread> executor_threads_;
  /// Reader threads keyed by connection id. A reader that finishes moves its
  /// connection out of conns_ and queues its id on finished_readers_; the
  /// accept loop joins those handles, so a long-running daemon serving many
  /// short-lived connections does not accumulate joinable thread stacks.
  std::unordered_map<std::uint64_t, std::thread> reader_threads_;
  std::vector<std::uint64_t> finished_readers_;  ///< guarded by conns_mutex_
};

}  // namespace ind::serve
