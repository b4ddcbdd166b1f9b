// ind_loadgen: load generator for ind_served.
//
//   ind_loadgen --port N [--host ADDR | --uds PATH]
//               [--clients C] [--outstanding K] [--requests R]
//               [--distinct D] [--spec "flow=... seg_um=..."]
//               [--retries N] [--backoff-ms MS] [--deadline-ms MS]
//               [--recv-timeout-ms MS]
//               [--chaos] [--kill-pid PID --kill-after-ms MS]
//               [--kill-worker segv|kill|xcpu|abrt [--kill-every-ms MS]]
//               [--expect-poisoned] [--out BENCH_serve.json]
//
// Replays a mixed layout workload: D distinct request bodies (small
// driver-receiver-grid layouts of varying extent, analysis knobs from
// --spec) cycled across C client connections, each keeping up to K requests
// outstanding (pipelined), R requests per client. Peak concurrency is
// therefore C*K in-flight requests against D distinct computations — the
// shape that exercises the server's in-flight dedup and response cache.
//
// Resolution semantics: a request is *resolved* when it produces an ok
// response or a terminal structured error. Busy sheds and connection losses
// are retried up to --retries times with exponential backoff, so the JSON
// reflects goodput (time-to-resolution percentiles, attempts histogram,
// retry/reconnect counts), not first-attempt luck.
//
// Correctness oracle: every ok response's RESULT block is digested and
// compared against the first response observed for the same request body —
// the kernels are bitwise-deterministic, so any divergence ("wrong_results")
// means the serving stack returned a wrong answer. This is the property the
// chaos harness gates on.
//
// --chaos mode drives each client through serve::ResilientClient
// (sequential, one request at a time, deterministic backoff jitter, circuit
// breaker) — built to run against an ind_chaos proxy
// and/or a server that is being killed and restarted mid-run
// (--kill-pid/--kill-after-ms sends SIGKILL from inside the load window).
// Exit 0 in chaos mode means: every request resolved, zero wrong results —
// terminal Busy/ConnectionLost outcomes are legal (the server was genuinely
// down), hangs and wrong answers are not.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <signal.h>

#include "geom/topologies.hpp"
#include "serve/client.hpp"
#include "serve/codec.hpp"
#include "serve/resilient_client.hpp"
#include "store/format.hpp"
#include "store/hash.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kAttemptsHistSlots = 9;  // [1..8], slot 8 = "8+"

struct Args {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string uds;
  int clients = 32;
  int outstanding = 32;
  int requests = 32;  ///< per client
  int distinct = 4;
  std::string spec = "flow=peec_rlc seg_um=200 t_stop=0.5e-9 dt=5e-12";
  std::string out = "BENCH_serve.json";

  int retries = 2;                    ///< extra attempts after the first
  std::uint64_t backoff_ms = 5;       ///< base backoff (doubles per attempt)
  std::uint64_t deadline_ms = 30'000; ///< per-request budget (chaos mode)
  std::uint64_t recv_timeout_ms = 0;  ///< 0: off (chaos mode defaults 5000)
  bool chaos = false;
  long kill_pid = 0;
  std::uint64_t kill_after_ms = 0;

  /// Worker-lane chaos (--kill-worker SIG): while the load window is open, a
  /// helper thread probes the server's health frame for live worker pids and
  /// signals one victim (round-robin) every --kill-every-ms. Exercises the
  /// supervisor's crash containment against a server that must keep serving.
  int kill_worker_sig = 0;
  std::uint64_t kill_every_ms = 250;
  /// Gate for the poison-quarantine CI scenario: succeed iff the run saw
  /// PoisonedRequest answers and no wrong/unresolved outcomes (ok may be 0 —
  /// every body can be poisoned when worker_exec@* kills all dispatches).
  bool expect_poisoned = false;
};

int parse_signal_name(const char* name) {
  const std::string s = name;
  if (s == "segv") return SIGSEGV;
  if (s == "kill") return SIGKILL;
  if (s == "xcpu") return SIGXCPU;
  if (s == "abrt") return SIGABRT;
  const int n = std::atoi(name);
  if (n <= 0) {
    std::fprintf(stderr,
                 "ind_loadgen: --kill-worker wants segv|kill|xcpu|abrt|NUM\n");
    std::exit(2);
  }
  return n;
}

/// Workload: D distinct small Figure-1 testbenches. The grid extent varies
/// per index so the request bodies — and therefore their fingerprints — are
/// genuinely distinct.
ind::serve::Request make_request(const Args& args, int index) {
  ind::serve::Request req;
  req.layout = ind::geom::Layout(ind::geom::default_tech());
  ind::geom::DriverReceiverGridSpec spec;
  spec.grid.extent_x = ind::geom::um(200.0 + 50.0 * index);
  spec.grid.extent_y = ind::geom::um(200.0 + 50.0 * index);
  spec.grid.pitch = ind::geom::um(100.0);
  spec.grid.pads_per_side = 1;
  spec.signal_length = ind::geom::um(150.0 + 25.0 * index);
  const auto result = ind::geom::add_driver_receiver_grid(req.layout, spec);
  req.options = ind::serve::options_from_spec(args.spec);
  req.options.signal_net = result.signal_net;
  return req;
}

/// Bitwise-correctness oracle: the first ok response for a body index pins
/// the expected RESULT digest; any later divergence is a wrong result.
struct Oracle {
  std::mutex mu;
  std::vector<bool> have;
  std::vector<ind::store::Digest> expected;

  explicit Oracle(std::size_t bodies) : have(bodies), expected(bodies) {}

  bool check(std::size_t body, const std::vector<std::uint8_t>& result) {
    ind::store::Hasher h;
    h.bytes(result.data(), result.size());
    const ind::store::Digest d = h.digest();
    std::lock_guard lock(mu);
    if (!have[body]) {
      have[body] = true;
      expected[body] = d;
      return true;
    }
    return expected[body] == d;
  }
};

struct ClientStats {
  std::vector<double> latencies_ms;  ///< time-to-resolution of ok requests
  std::uint64_t ok = 0;
  std::uint64_t computed = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t cache = 0;
  std::uint64_t busy = 0;        ///< terminal Busy (retries exhausted)
  std::uint64_t errors = 0;      ///< terminal structured errors
  std::uint64_t connlost = 0;    ///< terminal connection-lost
  std::uint64_t unresolved = 0;  ///< no terminal outcome (must stay 0)
  std::uint64_t wrong = 0;       ///< RESULT digest diverged from the oracle
  std::uint64_t poisoned = 0;    ///< terminal PoisonedRequest answers
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  std::array<std::uint64_t, kAttemptsHistSlots> attempts_hist{};
};

void record_attempts(ClientStats& stats, int attempts) {
  const auto slot = static_cast<std::size_t>(
      std::clamp(attempts, 1, static_cast<int>(kAttemptsHistSlots) - 1));
  ++stats.attempts_hist[slot];
}

std::uint64_t backoff_for(const Args& args, int completed_attempts) {
  std::uint64_t ms = args.backoff_ms;
  for (int k = 1; k < completed_attempts && ms < 2000; ++k) ms <<= 1;
  return std::min<std::uint64_t>(ms, 2000);
}

bool poll_readable(int fd, std::uint64_t timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&p, 1, static_cast<int>(timeout_ms));
    if (rc < 0 && errno == EINTR) continue;
    return rc > 0;
  }
}

bool connect_with_retry(ind::serve::Client& client, const Args& args,
                        int client_index) {
  for (int attempt = 0; attempt <= args.retries; ++attempt) {
    try {
      if (!args.uds.empty())
        client.connect_uds(args.uds);
      else
        client.connect_tcp(args.host, args.port);
      if (args.recv_timeout_ms > 0)
        client.set_recv_timeout_ms(args.recv_timeout_ms);
      return true;
    } catch (const std::exception& e) {
      if (attempt == args.retries) {
        std::fprintf(stderr, "loadgen client %d: connect: %s\n", client_index,
                     e.what());
        return false;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoff_for(args, attempt + 1)));
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// pipelined mode (direct connection): K outstanding, Busy/conn-loss retried
// ---------------------------------------------------------------------------

void run_client(const Args& args, int client_index,
                const std::vector<std::vector<std::uint8_t>>& bodies,
                ClientStats& stats, Oracle& oracle) {
  ind::serve::Client client;
  if (!connect_with_retry(client, args, client_index)) {
    stats.connlost += static_cast<std::uint64_t>(args.requests);
    return;
  }

  struct Pending {
    Clock::time_point first_sent{};
    Clock::time_point retry_at{};
    int attempts = 0;
    bool resolved = false;
    bool in_flight = false;
    bool retry_pending = false;
  };
  std::vector<Pending> reqs(static_cast<std::size_t>(args.requests));
  int next_send = 0, resolved = 0, outstanding = 0;

  const auto body_of = [&](int idx) -> const std::vector<std::uint8_t>& {
    // Spread the distinct bodies across clients so neighbours ask for
    // different layouts at the same moment (a mixed workload, not D
    // synchronized waves).
    return bodies[static_cast<std::size_t>(client_index + idx) %
                  bodies.size()];
  };
  const auto send_one = [&](int idx) -> bool {
    const auto& body = body_of(idx);
    ind::serve::Frame f;
    f.type = ind::serve::FrameType::AnalyzeRequest;
    f.payload.reserve(8 + body.size());
    const auto id = static_cast<std::uint64_t>(idx);
    for (int b = 0; b < 8; ++b)
      f.payload.push_back(static_cast<std::uint8_t>(id >> (8 * b)));
    f.payload.insert(f.payload.end(), body.begin(), body.end());
    Pending& p = reqs[static_cast<std::size_t>(idx)];
    if (p.attempts == 0) p.first_sent = Clock::now();
    ++p.attempts;
    p.in_flight = true;
    p.retry_pending = false;
    return client.send_raw(f);
  };
  const auto resolve = [&](int idx) -> Pending& {
    Pending& p = reqs[static_cast<std::size_t>(idx)];
    p.resolved = true;
    p.in_flight = false;
    record_attempts(stats, p.attempts);
    ++resolved;
    return p;
  };

  // Connection loss: close, requeue every in-flight request that still has
  // retry budget (its reply, if any, died with the socket), reconnect.
  const auto handle_conn_loss = [&]() -> bool {
    client.close();
    ++stats.reconnects;
    const auto now = Clock::now();
    for (int i = 0; i < args.requests; ++i) {
      Pending& p = reqs[static_cast<std::size_t>(i)];
      if (p.resolved || !p.in_flight) continue;
      p.in_flight = false;
      --outstanding;
      if (p.attempts <= args.retries) {
        ++stats.retries;
        p.retry_pending = true;
        p.retry_at = now + std::chrono::milliseconds(
                               backoff_for(args, p.attempts));
      } else {
        resolve(i);
        ++stats.connlost;
      }
    }
    if (!connect_with_retry(client, args, client_index)) {
      for (int i = 0; i < args.requests; ++i) {
        Pending& p = reqs[static_cast<std::size_t>(i)];
        if (p.resolved) continue;
        if (p.attempts == 0) p.attempts = 1;  // never even sent
        resolve(i);
        ++stats.connlost;
      }
      return false;
    }
    return true;
  };

  while (resolved < args.requests) {
    const auto now = Clock::now();
    bool lost = false;

    // 1. Resend retries that are due.
    for (int i = 0; i < args.requests && !lost; ++i) {
      Pending& p = reqs[static_cast<std::size_t>(i)];
      if (p.resolved || p.in_flight || !p.retry_pending || p.retry_at > now)
        continue;
      if (send_one(i)) ++outstanding;
      else lost = true;
    }
    // 2. Pipeline fresh requests up to the outstanding cap.
    while (!lost && next_send < args.requests &&
           outstanding < args.outstanding) {
      if (send_one(next_send)) ++outstanding;
      else lost = true;
      ++next_send;
    }
    if (lost) {
      if (!handle_conn_loss()) return;
      continue;
    }
    if (outstanding == 0) {
      // Nothing on the wire: we are waiting out a backoff.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    // 3. Wait briefly for a reply (short timeout so due retries get sent).
    if (!poll_readable(client.fd(), 50)) continue;

    ind::serve::Reply reply;
    try {
      reply = client.read_reply();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "loadgen client %d: %s\n", client_index, e.what());
      if (!handle_conn_loss()) return;
      continue;
    }
    if (!reply.ok && reply.error.code == ind::serve::ErrorCode::ConnectionLost) {
      if (!handle_conn_loss()) return;
      continue;
    }
    const auto idx = static_cast<int>(reply.request_id);
    if (idx < 0 || idx >= args.requests ||
        !reqs[static_cast<std::size_t>(idx)].in_flight)
      continue;  // stale/unknown id: ignore
    Pending& p = reqs[static_cast<std::size_t>(idx)];

    if (reply.ok) {
      --outstanding;
      resolve(idx);
      ++stats.ok;
      stats.latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    p.first_sent)
              .count());
      using ServedBy = ind::serve::Response::ServedBy;
      switch (reply.response.served_by) {
        case ServedBy::Computed: ++stats.computed; break;
        case ServedBy::Coalesced: ++stats.coalesced; break;
        case ServedBy::Cache: ++stats.cache; break;
      }
      if (!oracle.check(static_cast<std::size_t>(client_index + idx) %
                            bodies.size(),
                        reply.response.result_bytes))
        ++stats.wrong;
    } else if ((reply.busy ||
                reply.error.code == ind::serve::ErrorCode::WorkerCrashed) &&
               p.attempts <= args.retries) {
      // Shed under load — or both workers that ran this flight were killed
      // (a kill-worker sweep can hit the same flight twice): schedule a
      // retry instead of counting a failure. A fresh flight lands on
      // respawned workers.
      --outstanding;
      p.in_flight = false;
      ++stats.retries;
      p.retry_pending = true;
      p.retry_at =
          Clock::now() + std::chrono::milliseconds(backoff_for(args,
                                                               p.attempts));
    } else {
      --outstanding;
      resolve(idx);
      if (reply.busy) ++stats.busy;
      else if (reply.error.code == ind::serve::ErrorCode::PoisonedRequest)
        ++stats.poisoned;
      else ++stats.errors;
    }
  }
}

// ---------------------------------------------------------------------------
// chaos mode: sequential ResilientClient per client thread
// ---------------------------------------------------------------------------

void run_client_chaos(const Args& args, int client_index,
                      const std::vector<ind::serve::Request>& pool,
                      ClientStats& stats, Oracle& oracle) {
  ind::serve::Endpoint ep;
  ep.host = args.host;
  ep.tcp_port = args.port;
  ep.uds_path = args.uds;
  ind::serve::RetryPolicy policy;
  policy.max_attempts = args.retries + 1;
  policy.base_backoff_ms = args.backoff_ms;
  policy.deadline_ms = args.deadline_ms;
  policy.recv_timeout_ms =
      args.recv_timeout_ms > 0 ? args.recv_timeout_ms : 5000;
  ind::serve::ResilientClient client(ep, policy);

  for (int r = 0; r < args.requests; ++r) {
    const std::size_t body =
        static_cast<std::size_t>(client_index + r) % pool.size();
    ind::serve::CallOutcome outcome;
    try {
      outcome = client.analyze(static_cast<std::uint64_t>(r), pool[body]);
    } catch (const std::exception& e) {
      // Genuine protocol corruption — in a chaos run this is a finding, not
      // noise. Everything this client never resolved counts against the
      // gate.
      std::fprintf(stderr, "loadgen client %d: %s\n", client_index, e.what());
      stats.unresolved += static_cast<std::uint64_t>(args.requests - r);
      break;
    }
    record_attempts(stats, std::max(outcome.attempts, 1));
    if (outcome.ok) {
      ++stats.ok;
      stats.latencies_ms.push_back(outcome.elapsed_ms);
      using ServedBy = ind::serve::Response::ServedBy;
      switch (outcome.reply.response.served_by) {
        case ServedBy::Computed: ++stats.computed; break;
        case ServedBy::Coalesced: ++stats.coalesced; break;
        case ServedBy::Cache: ++stats.cache; break;
      }
      if (!oracle.check(body, outcome.reply.response.result_bytes))
        ++stats.wrong;
    } else {
      switch (outcome.reply.error.code) {
        case ind::serve::ErrorCode::QueueFull:
        case ind::serve::ErrorCode::ShuttingDown:
          ++stats.busy;
          break;
        case ind::serve::ErrorCode::ConnectionLost:
          ++stats.connlost;
          break;
        case ind::serve::ErrorCode::PoisonedRequest:
          ++stats.poisoned;
          break;
        default:
          ++stats.errors;
          break;
      }
    }
  }
  stats.retries += client.total_retries();
  stats.reconnects += client.total_reconnects();
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ind_loadgen: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") args.host = next();
    else if (arg == "--port") args.port = std::atoi(next());
    else if (arg == "--uds") args.uds = next();
    else if (arg == "--clients") args.clients = std::atoi(next());
    else if (arg == "--outstanding") args.outstanding = std::atoi(next());
    else if (arg == "--requests") args.requests = std::atoi(next());
    else if (arg == "--distinct") args.distinct = std::atoi(next());
    else if (arg == "--spec") args.spec = next();
    else if (arg == "--out") args.out = next();
    else if (arg == "--retries") args.retries = std::atoi(next());
    else if (arg == "--backoff-ms") args.backoff_ms = std::strtoull(next(), nullptr, 10);
    else if (arg == "--deadline-ms") args.deadline_ms = std::strtoull(next(), nullptr, 10);
    else if (arg == "--recv-timeout-ms") args.recv_timeout_ms = std::strtoull(next(), nullptr, 10);
    else if (arg == "--chaos") args.chaos = true;
    else if (arg == "--kill-pid") args.kill_pid = std::atol(next());
    else if (arg == "--kill-after-ms") args.kill_after_ms = std::strtoull(next(), nullptr, 10);
    else if (arg == "--kill-worker") args.kill_worker_sig = parse_signal_name(next());
    else if (arg == "--kill-every-ms") args.kill_every_ms = std::strtoull(next(), nullptr, 10);
    else if (arg == "--expect-poisoned") args.expect_poisoned = true;
    else {
      std::fprintf(stderr,
                   "usage: ind_loadgen --port N [--host ADDR | --uds PATH] "
                   "[--clients C] [--outstanding K] [--requests R] "
                   "[--distinct D] [--spec S] [--retries N] [--backoff-ms MS] "
                   "[--deadline-ms MS] [--recv-timeout-ms MS] "
                   "[--chaos] [--kill-pid PID --kill-after-ms MS] "
                   "[--kill-worker segv|kill|xcpu|abrt [--kill-every-ms MS]] "
                   "[--expect-poisoned] [--out FILE]\n");
      return arg == "--help" ? 0 : 2;
    }
  }
  if (args.port == 0 && args.uds.empty()) {
    std::fprintf(stderr, "ind_loadgen: --port or --uds is required\n");
    return 2;
  }

  // Pre-encode the distinct request bodies once; every client replays from
  // this pool, so identical indices are bitwise-identical on the wire.
  std::vector<ind::serve::Request> pool;
  std::vector<std::vector<std::uint8_t>> bodies;
  for (int d = 0; d < args.distinct; ++d) {
    pool.push_back(make_request(args, d));
    ind::store::ByteWriter w;
    ind::serve::put_request(w, pool.back());
    bodies.push_back(w.take());
  }
  Oracle oracle(bodies.size());

  // Optional mid-run server kill (the chaos-recovery scenario): SIGKILL the
  // given pid while the load window is open, from a helper thread.
  std::thread killer;
  if (args.kill_pid > 0 && args.kill_after_ms > 0) {
    killer = std::thread([&args] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(args.kill_after_ms));
      ::kill(static_cast<pid_t>(args.kill_pid), SIGKILL);
      std::fprintf(stderr, "ind_loadgen: sent SIGKILL to %ld\n",
                   args.kill_pid);
    });
  }

  // Worker-lane chaos: probe the health frame for live worker pids and
  // signal one victim per tick until the load window closes. Pid selection
  // goes through the server's own health report (not /proc), so the sweep
  // only ever kills processes the supervisor is advertising as its workers.
  std::atomic<bool> load_done{false};
  std::atomic<std::uint64_t> kills_sent{0};
  std::thread worker_killer;
  if (args.kill_worker_sig > 0) {
    worker_killer = std::thread([&args, &load_done, &kills_sent] {
      std::size_t round_robin = 0;
      while (!load_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(args.kill_every_ms));
        if (load_done.load(std::memory_order_relaxed)) break;
        try {
          ind::serve::Client probe;
          if (!args.uds.empty())
            probe.connect_uds(args.uds);
          else
            probe.connect_tcp(args.host, args.port);
          const ind::serve::HealthStatus h = probe.health();
          if (h.worker_pids.empty()) continue;
          const auto victim = static_cast<pid_t>(
              h.worker_pids[round_robin++ % h.worker_pids.size()]);
          if (::kill(victim, args.kill_worker_sig) == 0)
            kills_sent.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          // Probe raced a respawn window or the server is draining — the
          // next tick tries again. Never fail the run from the killer.
        }
      }
    });
  }

  std::vector<ClientStats> stats(static_cast<std::size_t>(args.clients));
  std::vector<std::thread> threads;
  const auto started = Clock::now();
  for (int c = 0; c < args.clients; ++c) {
    ClientStats& s = stats[static_cast<std::size_t>(c)];
    if (args.chaos)
      threads.emplace_back(run_client_chaos, std::cref(args), c,
                           std::cref(pool), std::ref(s), std::ref(oracle));
    else
      threads.emplace_back(run_client, std::cref(args), c, std::cref(bodies),
                           std::ref(s), std::ref(oracle));
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - started).count();
  load_done.store(true, std::memory_order_relaxed);
  if (killer.joinable()) killer.join();
  if (worker_killer.joinable()) worker_killer.join();

  // Final pool snapshot for the report (and for CI asserts on crash counts).
  // The worker section is emitted whenever the server reports worker lanes,
  // so the perf guard's IPC-overhead gate can confirm which mode it measured.
  ind::serve::HealthStatus pool_health;
  bool have_pool_health = false;
  try {
    ind::serve::Client probe;
    if (!args.uds.empty())
      probe.connect_uds(args.uds);
    else
      probe.connect_tcp(args.host, args.port);
    pool_health = probe.health();
    have_pool_health = pool_health.workers > 0 || args.kill_worker_sig > 0 ||
                       args.expect_poisoned;
  } catch (const std::exception& e) {
    if (args.kill_worker_sig > 0 || args.expect_poisoned)
      std::fprintf(stderr, "ind_loadgen: final health probe: %s\n", e.what());
  }

  ClientStats total;
  for (const ClientStats& s : stats) {
    total.latencies_ms.insert(total.latencies_ms.end(),
                              s.latencies_ms.begin(), s.latencies_ms.end());
    total.ok += s.ok;
    total.computed += s.computed;
    total.coalesced += s.coalesced;
    total.cache += s.cache;
    total.busy += s.busy;
    total.errors += s.errors;
    total.connlost += s.connlost;
    total.unresolved += s.unresolved;
    total.wrong += s.wrong;
    total.poisoned += s.poisoned;
    total.retries += s.retries;
    total.reconnects += s.reconnects;
    for (std::size_t k = 0; k < kAttemptsHistSlots; ++k)
      total.attempts_hist[k] += s.attempts_hist[k];
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  const double p50 = percentile(total.latencies_ms, 0.50);
  const double p99 = percentile(total.latencies_ms, 0.99);
  const std::uint64_t sent_total =
      static_cast<std::uint64_t>(args.clients) *
      static_cast<std::uint64_t>(args.requests);
  const double throughput =
      wall_s > 0.0 ? static_cast<double>(total.ok) / wall_s : 0.0;
  const double dedup_rate =
      total.ok > 0 ? static_cast<double>(total.coalesced + total.cache) /
                         static_cast<double>(total.ok)
                   : 0.0;

  std::ostringstream json;
  json << "{\n"
       << "  \"schema_version\": 1,\n"
       << "  \"bench\": \"serve\",\n"
       << "  \"serve\": {\n"
       << "    \"clients\": " << args.clients << ",\n"
       << "    \"outstanding_per_client\": " << args.outstanding << ",\n"
       << "    \"concurrent_requests\": " << args.clients * args.outstanding
       << ",\n"
       << "    \"distinct_bodies\": " << args.distinct << ",\n"
       << "    \"chaos\": " << (args.chaos ? 1 : 0) << ",\n"
       << "    \"requests_sent\": " << sent_total << ",\n"
       << "    \"ok\": " << total.ok << ",\n"
       << "    \"computed\": " << total.computed << ",\n"
       << "    \"coalesced\": " << total.coalesced << ",\n"
       << "    \"cache_hits\": " << total.cache << ",\n"
       << "    \"busy_rejected\": " << total.busy << ",\n"
       << "    \"errors\": " << total.errors << ",\n"
       << "    \"connection_lost\": " << total.connlost << ",\n"
       << "    \"unresolved\": " << total.unresolved << ",\n"
       << "    \"wrong_results\": " << total.wrong << ",\n"
       << "    \"poisoned\": " << total.poisoned << ",\n"
       << "    \"retries\": " << total.retries << ",\n"
       << "    \"reconnects\": " << total.reconnects << ",\n"
       << "    \"attempts_hist\": [";
  for (std::size_t k = 1; k < kAttemptsHistSlots; ++k)
    json << (k > 1 ? ", " : "") << total.attempts_hist[k];
  json << "],\n";
  // Per-body RESULT digests from the oracle (empty string for a body that
  // never resolved ok). Bodies are deterministic by index, so two runs —
  // e.g. IND_SERVE_WORKERS=0 vs =4 — must agree digest-for-digest.
  json << "    \"digests\": [";
  for (std::size_t b = 0; b < oracle.have.size(); ++b)
    json << (b > 0 ? ", " : "") << '"'
         << (oracle.have[b] ? oracle.expected[b].hex() : std::string()) << '"';
  json << "],\n";
  json.setf(std::ios::fixed);
  json.precision(4);
  json << "    \"dedup_hit_rate\": " << dedup_rate << ",\n";
  json.precision(3);
  json << "    \"p50_ms\": " << p50 << ",\n"
       << "    \"p99_ms\": " << p99 << ",\n";
  json.precision(1);
  json << "    \"throughput_rps\": " << throughput << ",\n";
  json.precision(3);
  json << "    \"wall_s\": " << wall_s << "\n"
       << "  }";
  if (have_pool_health) {
    json << ",\n"
         << "  \"worker\": {\n"
         << "    \"kills_sent\": " << kills_sent.load() << ",\n"
         << "    \"workers\": " << pool_health.workers << ",\n"
         << "    \"alive\": " << pool_health.workers_alive << ",\n"
         << "    \"respawning\": " << pool_health.workers_respawning << ",\n"
         << "    \"crashes_signal\": " << pool_health.worker_crashes_signal
         << ",\n"
         << "    \"crashes_oom\": " << pool_health.worker_crashes_oom << ",\n"
         << "    \"crashes_rlimit\": " << pool_health.worker_crashes_rlimit
         << ",\n"
         << "    \"crash_retries\": " << pool_health.worker_crash_retries
         << ",\n"
         << "    \"respawns\": " << pool_health.worker_respawns << ",\n"
         << "    \"quarantined\": " << pool_health.quarantined << "\n"
         << "  }";
  }
  json << "\n}\n";

  const std::string text = json.str();
  std::ofstream out(args.out);
  out << text;
  out.close();
  std::printf("%s", text.c_str());

  if (args.expect_poisoned)
    // Poison gate: the run must have seen structured PoisonedRequest answers
    // and nothing wrong or hung. ok can legitimately be 0 — with
    // worker_exec@* every distinct body ends up quarantined.
    return total.poisoned > 0 && total.wrong == 0 && total.unresolved == 0
               ? 0
               : 1;
  if (args.chaos)
    // Chaos gate: no hangs (everything resolved), no wrong answers. A
    // terminal Busy/ConnectionLost against a killed server is a legal
    // outcome; returning the wrong bytes never is.
    return total.ok > 0 && total.wrong == 0 && total.unresolved == 0 ? 0 : 1;
  return total.errors == 0 && total.connlost == 0 && total.wrong == 0 &&
                 total.poisoned == 0 && total.unresolved == 0 && total.ok > 0
             ? 0
             : 1;
}
