#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "govern/env.hpp"
#include "robust/fault_injection.hpp"
#include "runtime/metrics.hpp"
#include "store/artifact_cache.hpp"
#include "store/serde.hpp"

namespace ind::serve {

namespace {

using Clock = std::chrono::steady_clock;

void count(const char* name, std::int64_t delta = 1) {
  runtime::MetricsRegistry::instance().add_count(name, delta);
}

constexpr const char* kResponseKind = "serve_response";
constexpr const char* kServerId = "ind_served/1";

}  // namespace

// ---------------------------------------------------------------------------
// config
// ---------------------------------------------------------------------------

ServerConfig ServerConfig::from_env() {
  ServerConfig c;
  c.per_client_queue = static_cast<std::size_t>(
      govern::env_u64("IND_SERVE_CLIENT_QUEUE", c.per_client_queue, 1,
                      1u << 20, "serve")
          .value);
  c.max_queue = static_cast<std::size_t>(
      govern::env_u64("IND_SERVE_MAX_QUEUE", c.max_queue, 1, 1u << 24, "serve")
          .value);
  c.max_frame_bytes = static_cast<std::uint32_t>(
      govern::env_u64("IND_SERVE_MAX_FRAME_BYTES", c.max_frame_bytes, 1u << 10,
                      1u << 30, "serve")
          .value);
  c.budget_caps.deadline_ms =
      govern::env_ms("IND_SERVE_DEADLINE_MS", 0, 0, UINT64_MAX, "serve").value;
  c.budget_caps.mem_bytes =
      govern::env_u64("IND_SERVE_MEM_BYTES", 0, 0, UINT64_MAX, "serve").value;
  c.budget_caps.work_units =
      govern::env_u64("IND_SERVE_WORK_BUDGET", 0, 0, UINT64_MAX, "serve")
          .value;
  c.drain_ms =
      govern::env_ms("IND_SERVE_DRAIN_MS", c.drain_ms, 0, 3'600'000, "serve")
          .value;
  c.send_timeout_ms = govern::env_ms("IND_SERVE_SEND_TIMEOUT_MS",
                                     c.send_timeout_ms, 0, 3'600'000, "serve")
                          .value;
  c.result_cache_entries = static_cast<std::size_t>(
      govern::env_u64("IND_SERVE_RESULT_CACHE", c.result_cache_entries, 0,
                      1u << 20, "serve")
          .value);
  c.watchdog_interval_ms =
      govern::env_ms("IND_SERVE_WATCHDOG_MS", c.watchdog_interval_ms, 0,
                     3'600'000, "serve")
          .value;
  c.watchdog_stall_intervals = static_cast<int>(
      govern::env_u64("IND_SERVE_WATCHDOG_INTERVALS",
                      static_cast<std::uint64_t>(c.watchdog_stall_intervals),
                      1, 1000, "serve")
          .value);
  c.watchdog_abort =
      govern::env_u64("IND_SERVE_WATCHDOG_ABORT", c.watchdog_abort ? 1 : 0, 0,
                      1, "serve")
          .value != 0;
  c.workers = static_cast<std::size_t>(
      govern::env_u64("IND_SERVE_WORKERS", 0, 0, 256, "serve").value);
  c.poison_threshold = static_cast<int>(
      govern::env_u64("IND_SERVE_POISON_THRESHOLD",
                      static_cast<std::uint64_t>(c.poison_threshold), 1, 1000,
                      "serve")
          .value);
  if (const char* bin = std::getenv("IND_SERVE_WORKER_BIN");
      bin != nullptr && *bin != '\0')
    c.worker_bin = bin;
  return c;
}

govern::RunBudget clamp_budget(const govern::RunBudget& requested,
                               const govern::RunBudget& caps) {
  const auto clamp = [](std::uint64_t req, std::uint64_t cap) {
    if (cap == 0) return req;
    if (req == 0) return cap;
    return std::min(req, cap);
  };
  govern::RunBudget b;
  b.deadline_ms = clamp(requested.deadline_ms, caps.deadline_ms);
  b.mem_bytes = clamp(requested.mem_bytes, caps.mem_bytes);
  b.work_units = clamp(requested.work_units, caps.work_units);
  return b;
}

// ---------------------------------------------------------------------------
// connection / in-flight bookkeeping
// ---------------------------------------------------------------------------

struct Server::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  std::atomic<bool> alive{true};
  std::mutex write_mutex;

  /// The socket closes when the last reference (conns_, the reader thread,
  /// any waiter entry) drops. Disconnect paths only ::shutdown the fd, so
  /// its number is never recycled while a blocked send could still use it.
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  /// Serialised frame write (executor and reader both respond on a
  /// connection). A failed write — including a send that made no progress
  /// for the socket's SO_SNDTIMEO window — marks the peer dead; readers
  /// notice on their next read and run the disconnect path, and later
  /// sends to the dead peer are skipped instead of timing out again.
  bool send(const Frame& frame) {
    std::lock_guard lock(write_mutex);
    if (!alive.load(std::memory_order_relaxed) || fd < 0) return false;
    bool ok = false;
    // Deterministic chaos hook: a fired serve_send behaves exactly like the
    // peer vanishing mid-response. Only response frames are in scope — the
    // handshake must stay deliverable so the call indices are stable.
    const bool response_frame = frame.type == FrameType::AnalyzeResponse ||
                                frame.type == FrameType::Error ||
                                frame.type == FrameType::Busy;
    if (response_frame && robust::fault::fire(robust::fault::Site::ServeSend)) {
      ok = false;
    } else {
      try {
        ok = write_frame(fd, frame);
      } catch (const ProtocolError&) {
        ok = false;
      }
    }
    if (!ok) alive.store(false, std::memory_order_relaxed);
    return ok;
  }
};

struct Server::InFlight {
  Request request;
  store::Digest fp;
  std::string key;  ///< fp.hex(), the dedup/cache map key

  struct Waiter {
    std::shared_ptr<Connection> conn;
    std::uint64_t request_id = 0;
    bool initiator = false;  ///< the request that triggered the computation
    Clock::time_point admitted;
  };
  std::vector<Waiter> waiters;  ///< guarded by Server::state_mutex_
};

// ---------------------------------------------------------------------------
// lifecycle
// ---------------------------------------------------------------------------

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      scheduler_(config_.per_client_queue, config_.max_queue) {}

Server::~Server() {
  if (running_.load()) shutdown();
}

void Server::start() {
  // Defence in depth (satellite of the worker-pool work, but it protects
  // every send path): a peer or worker pipe closing mid-write must surface
  // as EPIPE — which write_frame already maps to "dead peer" — never as a
  // process-killing SIGPIPE. The socket sends use MSG_NOSIGNAL, but the
  // worker socketpairs and any future plain write() go through this.
  ::signal(SIGPIPE, SIG_IGN);
  if (config_.uds_path.empty()) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
      throw std::runtime_error(std::string("serve: socket: ") +
                               std::strerror(errno));
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1)
      throw std::runtime_error("serve: bad listen address " + config_.host);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0)
      throw std::runtime_error(std::string("serve: bind: ") +
                               std::strerror(errno));
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  } else {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
      throw std::runtime_error(std::string("serve: socket: ") +
                               std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.uds_path.size() >= sizeof addr.sun_path)
      throw std::runtime_error("serve: socket path too long: " +
                               config_.uds_path);
    std::strncpy(addr.sun_path, config_.uds_path.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(config_.uds_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0)
      throw std::runtime_error(std::string("serve: bind ") + config_.uds_path +
                               ": " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) < 0)
    throw std::runtime_error(std::string("serve: listen: ") +
                             std::strerror(errno));

  if (config_.workers > 0) {
    WorkerPool::Config wc;
    wc.workers = config_.workers;
    wc.worker_bin = config_.worker_bin;
    wc.poison_threshold = config_.poison_threshold;
    wc.max_frame_bytes = config_.max_frame_bytes;
    pool_ = std::make_unique<WorkerPool>(std::move(wc));
    pool_->start();  // throws if no worker can start; the server stays down
  }

  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  const std::size_t lanes = pool_ ? config_.workers : 1;
  for (std::size_t i = 0; i < lanes; ++i)
    executor_threads_.emplace_back([this] { executor_loop(); });
  if (config_.watchdog_interval_ms > 0)
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (shutdown) or fatal error
    }
    if (stopping_.load()) {
      ::close(fd);
      continue;
    }
    reap_readers();
    if (config_.send_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(config_.send_timeout_ms / 1000);
      tv.tv_usec =
          static_cast<suseconds_t>((config_.send_timeout_ms % 1000) * 1000);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard lock(conns_mutex_);
      conn->id = next_conn_id_++;
      conns_.push_back(conn);
      reader_threads_.emplace(conn->id,
                              std::thread([this, conn] { connection_loop(conn); }));
    }
    count("serve.connections");
  }
}

void Server::reap_readers() {
  std::vector<std::thread> done;
  {
    std::lock_guard lock(conns_mutex_);
    for (const std::uint64_t id : finished_readers_) {
      auto it = reader_threads_.find(id);
      if (it == reader_threads_.end()) continue;
      done.push_back(std::move(it->second));
      reader_threads_.erase(it);
    }
    finished_readers_.clear();
  }
  // The threads have already run their final statement (queueing the id is
  // the last thing connection_loop does), so these joins return promptly.
  for (std::thread& t : done) t.join();
  if (!done.empty())
    count("serve.readers_reaped", static_cast<std::int64_t>(done.size()));
}

// ---------------------------------------------------------------------------
// reader side
// ---------------------------------------------------------------------------

void Server::connection_body(const std::shared_ptr<Connection>& conn) {
  // Handshake: the first frame must be a well-formed Hello. Anything else
  // gets a structured Error naming why, then the connection closes —
  // a client built against a different protocol version never reaches the
  // request decoder.
  const auto hello = read_frame(conn->fd, config_.max_frame_bytes);
  if (!hello) return;  // peer died before saying hello
  ErrorCode verdict = ErrorCode::None;
  if (hello->type != FrameType::Hello) {
    verdict = ErrorCode::BadMagic;
  } else {
    verdict = check_hello(hello->payload, nullptr);
  }
  if (verdict != ErrorCode::None) {
    count("serve.handshake_rejects");
    conn->send(make_error(0, verdict, "handshake rejected"));
    return;
  }
  conn->send(make_hello_ack(kServerId));

  while (auto frame = read_frame(conn->fd, config_.max_frame_bytes)) {
    if (frame->type == FrameType::HealthRequest) {
      // Answered inline on the reader thread — probes must work even (and
      // especially) while the executor is wedged.
      count("serve.health_probes");
      conn->send(make_health(snapshot_health()));
      continue;
    }
    if (frame->type != FrameType::AnalyzeRequest) {
      count("serve.protocol_errors");
      conn->send(make_error(0, ErrorCode::MalformedFrame,
                            "unexpected frame type"));
      break;
    }
    handle_request(conn, frame->payload);
  }
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  try {
    connection_body(conn);
  } catch (const ProtocolError& e) {
    count("serve.protocol_errors");
    conn->send(make_error(0, e.code(), e.what()));
  } catch (const std::exception& e) {
    count("serve.protocol_errors");
    conn->send(make_error(0, ErrorCode::Internal, e.what()));
  }
  // Every exit path — pre-handshake EOF, handshake reject, clean EOF,
  // protocol error — funnels through here: a connection that dies during its
  // handshake must still leave conns_ and queue its reader for reaping, or a
  // port scanner could grow the connection table without bound.
  disconnect(conn);
  // Retire this connection: drop it from the live set and queue this
  // thread's handle for the accept loop (or shutdown) to join. Must be the
  // last statement — a thread cannot join itself.
  {
    std::lock_guard lock(conns_mutex_);
    std::erase_if(conns_, [&](const std::shared_ptr<Connection>& c) {
      return c.get() == conn.get();
    });
    finished_readers_.push_back(conn->id);
  }
}

void Server::handle_request(const std::shared_ptr<Connection>& conn,
                            const std::vector<std::uint8_t>& payload) {
  count("serve.requests");
  std::uint64_t request_id = 0;
  auto flight = std::make_shared<InFlight>();
  try {
    store::ByteReader r(payload);
    request_id = r.u64();
    // Deterministic fault site for the malformed-input recovery path: a
    // fired serve_read makes this request behave as if its bytes were
    // corrupt, exactly like store_read does for cache artifacts.
    if (robust::fault::fire(robust::fault::Site::ServeRead))
      throw store::StoreError(store::StoreErrc::Malformed,
                              "serve_read fault injected");
    get_request(r, flight->request);
  } catch (const std::exception& e) {
    count("serve.protocol_errors");
    conn->send(make_error(request_id, ErrorCode::MalformedFrame, e.what()));
    return;
  }

  // From here on the request is the one that will actually run: its budget
  // clamped by the server caps. Dedup and both response caches key on it, so
  // a restart with different IND_SERVE_* caps can never replay results
  // computed under the old ones.
  flight->request.budget =
      clamp_budget(flight->request.budget, config_.budget_caps);
  flight->fp = request_fingerprint(flight->request);
  flight->key = flight->fp.hex();
  const auto now = Clock::now();

  // Poison quarantine: this fingerprint has already killed its quota of
  // workers — answer instantly instead of queueing another crash-loop lap.
  // (A quarantined body never completed, so it cannot be in either cache.)
  if (pool_ && pool_->poisoned(flight->fp)) {
    count("serve.worker.poison_rejects");
    conn->send(make_error(request_id, ErrorCode::PoisonedRequest,
                          "request fingerprint " + flight->key +
                              " is quarantined after repeated worker kills"));
    return;
  }

  // Decide the fate of the request under the lock; send the reply (which may
  // block on a slow socket) after releasing it.
  std::optional<Frame> reply;
  std::vector<std::uint8_t> cached;
  double build_s = 0.0, solve_s = 0.0;
  const auto cache_reply = [&] {
    count("serve.cache_hits");
    Frame f;
    f.type = FrameType::AnalyzeResponse;
    f.payload = encode_response_payload(request_id, Response::ServedBy::Cache,
                                        build_s, solve_s, 0.0, cached);
    return f;
  };
  bool disk_probed = false;
  for (;;) {
    std::unique_lock lock(state_mutex_);

    // Response-cache short-circuit: an identical request already computed —
    // replay the stored RESULT block verbatim.
    if (cache_probe(flight->fp, &cached, &build_s, &solve_s)) {
      reply = cache_reply();
      break;
    }
    if (auto it = inflight_.find(flight->key); it != inflight_.end()) {
      // In-flight dedup: attach to an identical queued/running computation.
      it->second->waiters.push_back({conn, request_id, false, now});
      count("serve.dedup_hits");
      break;
    }
    if (!disk_probed && store::ArtifactCache::instance().enabled()) {
      // A previous server process may have persisted the response. The disk
      // read must not happen under state_mutex_ (it would stall every
      // reader's admission and the executor's waiter bookkeeping), so drop
      // the lock, probe, and re-decide — an identical request may have been
      // cached or scheduled meanwhile.
      lock.unlock();
      disk_probed = true;
      if (cache_load_disk(flight->fp, &cached, &build_s, &solve_s)) {
        count("serve.disk_cache_hits");
        lock.lock();
        cache_store(flight->fp, cached, build_s, solve_s);
        reply = cache_reply();
        break;
      }
      continue;
    }
    if (degraded_.load(std::memory_order_relaxed)) {
      // Watchdog-tripped degradation: the executor is wedged, so queueing
      // more work only grows an unserviceable backlog. Cache hits and dedup
      // attaches (above) still drain; fresh computations are shed.
      count("serve.watchdog_sheds");
      reply = make_busy(request_id, ErrorCode::QueueFull,
                        "executor wedged (watchdog); retry later");
      break;
    }
    flight->waiters.push_back({conn, request_id, true, now});
    inflight_.emplace(flight->key, flight);
    const Admit admit = scheduler_.push(conn->id, flight);
    if (admit == Admit::Ok) {
      count("serve.admitted");
      runtime::MetricsRegistry::instance().max_count(
          "serve.queue_depth_peak",
          static_cast<std::int64_t>(scheduler_.depth()));
    } else {
      inflight_.erase(flight->key);
      if (admit == Admit::Draining) {
        count("serve.busy_shutdown");
        reply = make_busy(request_id, ErrorCode::ShuttingDown,
                          "server is draining");
      } else {
        count("serve.busy_queue_full");
        reply = make_busy(request_id, ErrorCode::QueueFull,
                          admit == Admit::ClientFull ? "client queue full"
                                                     : "server queue full");
      }
    }
    break;
  }
  if (reply) conn->send(*reply);
}

void Server::disconnect(const std::shared_ptr<Connection>& conn) {
  const bool was_alive = conn->alive.exchange(false);
  {
    std::lock_guard lock(state_mutex_);
    for (auto& [key, flight] : inflight_) {
      auto& ws = flight->waiters;
      std::erase_if(ws, [&](const InFlight::Waiter& w) {
        return w.conn.get() == conn.get();
      });
      // The executor is mid-computation for a flight nobody wants any more:
      // stop it through the cancellation token. Queued orphans are cheaper —
      // the executor skips them when it pops them.
      if (ws.empty() && flight == current_) {
        govern::Governor::instance().cancel(govern::BudgetKind::External);
        count("serve.cancelled_disconnect");
      }
    }
  }
  if (was_alive) count("serve.disconnects");
  // Unblock anything still parked on this peer (a response send mid-write);
  // the fd itself stays open until ~Connection.
  if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
}

// ---------------------------------------------------------------------------
// executor side
// ---------------------------------------------------------------------------

void Server::executor_loop() {
  FlightPtr flight;
  while (scheduler_.pop(flight)) {
    progress_ticks_.fetch_add(1, std::memory_order_relaxed);
    if (config_.before_execute) config_.before_execute();
    {
      std::lock_guard lock(state_mutex_);
      if (flight->waiters.empty()) {
        // Every client that wanted this result disconnected while it was
        // queued; drop it without computing.
        inflight_.erase(flight->key);
        count("serve.abandoned");
        flight.reset();
        continue;
      }
      ++running_flights_;
      // current_ is the disconnect-cancellation target and only meaningful
      // for the single in-process lane (one process Governor). Worker-mode
      // orphans run to completion in their own process and warm the cache.
      if (!pool_) current_ = flight;
    }
    execute(flight);
    progress_ticks_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard lock(state_mutex_);
      if (!pool_) current_.reset();
      --running_flights_;
    }
    flight.reset();
  }
}

void Server::watchdog_loop() {
  Watchdog dog(config_.watchdog_stall_intervals);
  bool was_wedged = false;
  std::unique_lock lock(watchdog_mutex_);
  while (!stopping_.load()) {
    watchdog_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.watchdog_interval_ms),
        [this] { return stopping_.load(); });
    if (stopping_.load()) break;
    const bool has_work = scheduler_.depth() > 0;
    if (dog.sample(progress_ticks_.load(std::memory_order_relaxed),
                   has_work)) {
      watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
      count("serve.watchdog_trips");
      std::fprintf(stderr,
                   "ind_served: watchdog: executor made no progress for %d x "
                   "%llu ms with work queued; shedding new requests\n",
                   config_.watchdog_stall_intervals,
                   static_cast<unsigned long long>(
                       config_.watchdog_interval_ms));
      if (config_.watchdog_abort) {
        std::fflush(nullptr);
        std::abort();  // fail-stop: let the orchestrator restart us
      }
    }
    if (was_wedged && !dog.wedged()) count("serve.watchdog_recoveries");
    was_wedged = dog.wedged();
    degraded_.store(dog.wedged(), std::memory_order_relaxed);
  }
}

HealthStatus Server::snapshot_health() {
  HealthStatus s;
  s.queue_depth = scheduler_.depth();
  s.draining = stopping_.load();
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.watchdog_trips = watchdog_trips_.load(std::memory_order_relaxed);
  s.executor_ticks = progress_ticks_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(state_mutex_);
    s.inflight = inflight_.size();
    s.cache_entries = response_cache_.size();
  }
  {
    std::lock_guard lock(conns_mutex_);
    s.connections = conns_.size();
  }
  auto& metrics = runtime::MetricsRegistry::instance();
  s.requests = static_cast<std::uint64_t>(
      metrics.counter("serve.requests").value.load());
  s.cache_hits = static_cast<std::uint64_t>(
      metrics.counter("serve.cache_hits").value.load());
  if (pool_) {
    const WorkerPool::PoolHealth ph = pool_->health();
    s.workers = ph.workers;
    s.workers_alive = ph.alive;
    s.workers_respawning = ph.respawning;
    s.worker_crashes_signal = ph.crashes_signal;
    s.worker_crashes_oom = ph.crashes_oom;
    s.worker_crashes_rlimit = ph.crashes_rlimit;
    s.worker_crash_retries = ph.crash_retries;
    s.worker_respawns = ph.respawns;
    s.quarantined = ph.quarantined;
    s.worker_pids = ph.pids;
  }
  return s;
}

void Server::execute(const FlightPtr& flight) {
  const auto started = Clock::now();
  Outcome out;
  {
    runtime::ScopedTimer timer("serve.execute");
    try {
      // A worker lane runs the flight in a sandboxed process: crashes come
      // back as classified outcomes (retried once on a sibling, quarantined
      // past the poison threshold), never as a server death.
      out = pool_ ? pool_->run(flight->fp, flight->request)
                  : run_request(flight->request, config_.max_frame_bytes);
    } catch (const std::exception& e) {
      // Defensive: an exception here would fly out of executor_loop's
      // std::thread and std::terminate the whole server.
      out.code = ErrorCode::Internal;
      out.detail = std::string("dispatch failed: ") + e.what();
    }
  }
  switch (out.code) {
    case ErrorCode::None: count("serve.computed"); break;
    case ErrorCode::DeadlineExceeded: count("serve.deadline_trips"); break;
    case ErrorCode::BadRequest: count("serve.bad_requests"); break;
    // Disconnect- or shutdown-triggered cancellation. With no waiters there
    // is nobody to answer; during a drain the remaining waiters get a
    // structured ShuttingDown.
    case ErrorCode::ShuttingDown: count("serve.cancelled_runs"); break;
    case ErrorCode::PoisonedRequest:
      count("serve.worker.poisoned_replies");
      break;
    case ErrorCode::WorkerCrashed: count("serve.worker.crashed_replies"); break;
    default: count("serve.internal_errors"); break;
  }

  std::vector<InFlight::Waiter> waiters;
  {
    std::lock_guard lock(state_mutex_);
    inflight_.erase(flight->key);
    waiters = std::move(flight->waiters);
    flight->waiters.clear();
    if (out.code == ErrorCode::None)
      cache_store(flight->fp, out.result_bytes, out.build_seconds,
                  out.solve_seconds);
  }

  for (const InFlight::Waiter& w : waiters) {
    if (out.code != ErrorCode::None) {
      w.conn->send(make_error(w.request_id, out.code, out.detail));
      continue;
    }
    const double queue_s =
        std::chrono::duration<double>(started - w.admitted).count();
    Frame f;
    f.type = FrameType::AnalyzeResponse;
    f.payload = encode_response_payload(
        w.request_id,
        w.initiator ? Response::ServedBy::Computed
                    : Response::ServedBy::Coalesced,
        out.build_seconds, out.solve_seconds, std::max(queue_s, 0.0),
        out.result_bytes);
    if (w.conn->send(f)) count("serve.responses");
  }
}

// ---------------------------------------------------------------------------
// response cache
// ---------------------------------------------------------------------------

bool Server::cache_probe(const store::Digest& fp,
                         std::vector<std::uint8_t>* result,
                         double* build_seconds, double* solve_seconds) {
  const auto it = response_cache_.find(fp.hex());
  if (it == response_cache_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second.lru);  // refresh MRU
  *result = it->second.result;
  *build_seconds = it->second.build_seconds;
  *solve_seconds = it->second.solve_seconds;
  return true;
}

bool Server::cache_load_disk(const store::Digest& fp,
                             std::vector<std::uint8_t>* result,
                             double* build_seconds, double* solve_seconds) {
  auto& disk = store::ArtifactCache::instance();
  if (!disk.enabled()) return false;
  auto artifact = disk.load(kResponseKind, fp);
  if (!artifact) return false;
  try {
    *result = artifact->section("result");
    store::ByteReader stats(artifact->section("stats"));
    *build_seconds = stats.f64();
    *solve_seconds = stats.f64();
  } catch (const store::StoreError&) {
    return false;
  }
  return true;
}

void Server::cache_store(const store::Digest& fp,
                         const std::vector<std::uint8_t>& result,
                         double build_seconds, double solve_seconds) {
  if (config_.result_cache_entries == 0) return;
  const std::string key = fp.hex();
  if (response_cache_.contains(key)) return;
  lru_.push_front(key);
  CacheEntry entry;
  entry.fp = fp;
  entry.result = result;
  entry.build_seconds = build_seconds;
  entry.solve_seconds = solve_seconds;
  entry.lru = lru_.begin();
  response_cache_.emplace(key, std::move(entry));
  while (response_cache_.size() > config_.result_cache_entries) {
    response_cache_.erase(lru_.back());
    lru_.pop_back();
    count("serve.cache_evictions");
  }
}

void Server::flush_cache_to_store() {
  auto& disk = store::ArtifactCache::instance();
  if (!disk.enabled()) return;
  std::lock_guard lock(state_mutex_);
  for (const auto& [key, entry] : response_cache_) {
    store::Artifact a;
    a.kind = kResponseKind;
    a.fingerprint = entry.fp;
    store::ByteWriter result;
    result.raw(entry.result.data(), entry.result.size());
    a.add("result", std::move(result));
    store::ByteWriter stats;
    stats.f64(entry.build_seconds);
    stats.f64(entry.solve_seconds);
    a.add("stats", std::move(stats));
    disk.save(a);
    count("serve.cache_flushed");
  }
}

// ---------------------------------------------------------------------------
// shutdown
// ---------------------------------------------------------------------------

void Server::shutdown() {
  if (stopping_.exchange(true)) {
    // A second caller waits for the first to finish tearing down.
    while (running_.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return;
  }

  // 1. Stop accepting connections.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (!config_.uds_path.empty()) ::unlink(config_.uds_path.c_str());

  // Stop the watchdog before draining: the drain is progress by definition,
  // and a trip/abort while we are tearing down would be noise.
  if (watchdog_thread_.joinable()) {
    { std::lock_guard lock(watchdog_mutex_); }
    watchdog_cv_.notify_all();
    watchdog_thread_.join();
  }

  // 2. Stop admission; readers answer new requests with Busy/ShuttingDown.
  scheduler_.shutdown();

  // 3. Drain: let the executor finish queued work, bounded by drain_ms.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.drain_ms);
  for (;;) {
    bool idle;
    {
      std::lock_guard lock(state_mutex_);
      idle = scheduler_.depth() == 0 && running_flights_ == 0;
    }
    if (idle || Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // 4. Past the deadline: shed whatever is left with a structured answer and
  //    cancel the in-flight analysis through the token. The waiters are
  //    collected under the lock but answered outside it — sends can block
  //    (bounded by SO_SNDTIMEO) and must not hold up state.
  std::vector<InFlight::Waiter> shed;
  {
    std::vector<FlightPtr> leftovers = scheduler_.drain_all();
    std::lock_guard lock(state_mutex_);
    for (const FlightPtr& flight : leftovers) {
      inflight_.erase(flight->key);
      for (InFlight::Waiter& w : flight->waiters)
        shed.push_back(std::move(w));
      flight->waiters.clear();
    }
    if (current_ != nullptr)
      govern::Governor::instance().cancel(govern::BudgetKind::External);
  }
  // Worker mode: stop the pool now so lanes blocked on a worker reply (or
  // waiting for an idle worker) unblock — their flights answer ShuttingDown
  // against the sockets shut down below.
  if (pool_) pool_->stop();
  for (const InFlight::Waiter& w : shed)
    w.conn->send(make_error(w.request_id, ErrorCode::ShuttingDown,
                            "server shut down before this request ran"));
  if (!shed.empty())
    count("serve.shed_on_shutdown", static_cast<std::int64_t>(shed.size()));

  // 5. Mark every connection dead and shut its socket down BEFORE joining
  //    the worker threads: a response send the executor is still blocked in
  //    fails immediately instead of waiting out its timeout, and blocked
  //    reads return. In the graceful path the executor is already idle here
  //    and every response was delivered during the drain.
  {
    std::lock_guard lock(conns_mutex_);
    for (const auto& conn : conns_) {
      conn->alive.store(false, std::memory_order_relaxed);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }

  // 6. The queue is empty and draining: pop() returns false and every
  //    executor lane exits (after answering the cancelled in-flight request,
  //    if any — those sends fail fast against the sockets shut down above).
  for (std::thread& lane : executor_threads_)
    if (lane.joinable()) lane.join();
  executor_threads_.clear();

  // 7. Join the readers: the ones still in the map unblock on their dead
  //    sockets, the already-finished ones were queued for reaping. Each
  //    connection's fd closes when its last reference drops.
  std::unordered_map<std::uint64_t, std::thread> readers;
  {
    std::lock_guard lock(conns_mutex_);
    readers.swap(reader_threads_);
    finished_readers_.clear();
  }
  for (auto& [id, thread] : readers)
    if (thread.joinable()) thread.join();
  {
    std::lock_guard lock(conns_mutex_);
    conns_.clear();
  }

  // 8. Persist the response cache so a restarted server starts warm.
  flush_cache_to_store();
  running_.store(false);
}

}  // namespace ind::serve
