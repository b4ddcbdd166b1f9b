// End-to-end resilience tests: the retrying client (deterministic backoff
// schedule, retryability classification, circuit breaker, reconnect
// across a server restart), the server's health frame and wedged-executor
// watchdog, torn-connection hardening (mid-frame disconnect at every byte
// offset, the serve_send fault site), and crash-safe store recovery
// (orphaned .tmp quarantine, checksum-failure quarantine, clean sweeps).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "geom/topologies.hpp"
#include "govern/budget.hpp"
#include "robust/fault_injection.hpp"
#include "runtime/metrics.hpp"
#include "serve/client.hpp"
#include "serve/codec.hpp"
#include "serve/health.hpp"
#include "serve/protocol.hpp"
#include "serve/resilient_client.hpp"
#include "serve/server.hpp"
#include "store/artifact_cache.hpp"
#include "store/format.hpp"

namespace {

using namespace ind;
using geom::um;
namespace fault = robust::fault;
namespace fs = std::filesystem;

std::int64_t counter(const char* name) {
  return runtime::MetricsRegistry::instance().counter(name).value.load();
}

bool eventually(const std::function<bool()>& cond) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

serve::Request grid_request(double extent_um = 220.0) {
  serve::Request req;
  req.layout = geom::Layout(geom::default_tech());
  geom::DriverReceiverGridSpec spec;
  spec.grid.extent_x = um(extent_um);
  spec.grid.extent_y = um(extent_um);
  spec.grid.pitch = um(100.0);
  spec.grid.pads_per_side = 1;
  spec.signal_length = um(150.0);
  const auto r = geom::add_driver_receiver_grid(req.layout, spec);
  req.options = serve::options_from_spec(
      "flow=peec_rlc seg_um=200 t_stop=0.5e-9 dt=5e-12");
  req.options.signal_net = r.signal_net;
  return req;
}

class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    govern::Governor::instance().configure({});
    fault::clear();
  }
};

// ---------------------------------------------------------------------------
// Pure state machines: watchdog, breaker, backoff, classification.
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, WatchdogStateMachine) {
  serve::Watchdog dog(3);
  // Ticks advancing: never wedged, regardless of queue depth.
  EXPECT_FALSE(dog.sample(1, true));
  EXPECT_FALSE(dog.sample(2, true));
  EXPECT_FALSE(dog.sample(3, true));
  EXPECT_FALSE(dog.wedged());

  // Ticks frozen with work queued: trips exactly at the Kth stalled sample,
  // and reports the transition exactly once.
  EXPECT_FALSE(dog.sample(3, true));  // stalled 1
  EXPECT_FALSE(dog.sample(3, true));  // stalled 2
  EXPECT_TRUE(dog.sample(3, true));   // stalled 3 -> trip
  EXPECT_TRUE(dog.wedged());
  EXPECT_FALSE(dog.sample(3, true));  // still wedged, no re-trip
  EXPECT_EQ(dog.trips(), 1u);

  // Any progress clears the wedge.
  EXPECT_FALSE(dog.sample(4, true));
  EXPECT_FALSE(dog.wedged());

  // Frozen ticks with an EMPTY queue is idle, not a wedge.
  EXPECT_FALSE(dog.sample(4, false));
  EXPECT_FALSE(dog.sample(4, false));
  EXPECT_FALSE(dog.sample(4, false));
  EXPECT_FALSE(dog.sample(4, false));
  EXPECT_FALSE(dog.wedged());

  // An idle stretch must not carry over into a wedged verdict.
  EXPECT_FALSE(dog.sample(4, true));  // stalled 1 (counter restarted)
  EXPECT_FALSE(dog.sample(4, true));  // stalled 2
  EXPECT_TRUE(dog.sample(4, true));   // stalled 3 -> second trip
  EXPECT_EQ(dog.trips(), 2u);
}

TEST_F(ResilienceTest, CircuitBreakerTransitions) {
  using CB = serve::CircuitBreaker;
  CB::TimePoint t{};  // synthetic clock: no sleeping in this test
  const auto ms = [](int n) { return std::chrono::milliseconds(n); };
  CB breaker(3, 100);

  // Closed: failures below the threshold keep it closed.
  EXPECT_TRUE(breaker.allow(t));
  breaker.on_failure(t);
  breaker.on_failure(t);
  EXPECT_EQ(breaker.state(), CB::State::Closed);
  EXPECT_TRUE(breaker.allow(t));

  // A success resets the consecutive-failure count.
  breaker.on_success();
  breaker.on_failure(t);
  breaker.on_failure(t);
  EXPECT_EQ(breaker.state(), CB::State::Closed);

  // The threshold-th consecutive failure opens the circuit.
  breaker.on_failure(t);
  EXPECT_EQ(breaker.state(), CB::State::Open);
  EXPECT_FALSE(breaker.allow(t + ms(50)));
  EXPECT_EQ(breaker.open_remaining(t + ms(40)), ms(60));

  // After the window: exactly one half-open probe.
  EXPECT_TRUE(breaker.allow(t + ms(100)));
  EXPECT_EQ(breaker.state(), CB::State::HalfOpen);
  EXPECT_FALSE(breaker.allow(t + ms(101)));  // probe outstanding

  // Probe fails -> a fresh full open window.
  breaker.on_failure(t + ms(110));
  EXPECT_EQ(breaker.state(), CB::State::Open);
  EXPECT_FALSE(breaker.allow(t + ms(150)));
  EXPECT_TRUE(breaker.allow(t + ms(210)));  // next probe

  // Probe succeeds -> closed again.
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CB::State::Closed);
  EXPECT_TRUE(breaker.allow(t + ms(211)));
  EXPECT_EQ(breaker.open_remaining(t + ms(211)), ms(0));
}

TEST_F(ResilienceTest, BackoffScheduleIsDeterministicAndCapped) {
  serve::RetryPolicy policy;
  policy.base_backoff_ms = 10;
  policy.max_backoff_ms = 200;
  const store::Digest fp{0x0123456789abcdefULL, 0xfedcba9876543210ULL};

  // The schedule is a pure function of (fingerprint, attempt, policy): the
  // oracle below is the contract — a change to the jitter derivation is a
  // determinism break, not a refactor.
  std::vector<std::uint64_t> schedule;
  for (int attempt = 1; attempt <= 6; ++attempt)
    schedule.push_back(serve::ResilientClient::backoff_ms(fp, attempt, policy));
  for (int attempt = 1; attempt <= 6; ++attempt)
    EXPECT_EQ(serve::ResilientClient::backoff_ms(fp, attempt, policy),
              schedule[static_cast<std::size_t>(attempt - 1)])
        << "schedule not reproducible at attempt " << attempt;

  // Every wait lands in [raw/2, raw] with raw = min(cap, base << (k-1)).
  std::uint64_t raw = policy.base_backoff_ms;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const std::uint64_t w = schedule[static_cast<std::size_t>(attempt - 1)];
    EXPECT_GE(w, raw / 2) << "attempt " << attempt;
    EXPECT_LE(w, raw) << "attempt " << attempt;
    raw = std::min<std::uint64_t>(raw * 2, policy.max_backoff_ms);
  }
  // The cap binds from attempt 6 on (10 << 5 = 320 > 200).
  EXPECT_LE(schedule[5], policy.max_backoff_ms);

  // A different fingerprint jitters differently somewhere in the schedule —
  // two clients retrying different requests must not thunder in lockstep.
  const store::Digest other{0x1111111111111111ULL, 0x2222222222222222ULL};
  bool diverged = false;
  for (int attempt = 1; attempt <= 6; ++attempt)
    diverged |= serve::ResilientClient::backoff_ms(other, attempt, policy) !=
                schedule[static_cast<std::size_t>(attempt - 1)];
  EXPECT_TRUE(diverged);
}

TEST_F(ResilienceTest, RetryClassification) {
  using serve::ErrorCode;
  const auto retryable = [](ErrorCode c) {
    return serve::ResilientClient::retryable(c);
  };
  // Transient: the server is shedding, restarting, or the connection died.
  EXPECT_TRUE(retryable(ErrorCode::ConnectionLost));
  EXPECT_TRUE(retryable(ErrorCode::QueueFull));
  EXPECT_TRUE(retryable(ErrorCode::ShuttingDown));
  // Terminal: retrying re-sends the same doomed request.
  EXPECT_FALSE(retryable(ErrorCode::BadRequest));
  EXPECT_FALSE(retryable(ErrorCode::DeadlineExceeded));
  EXPECT_FALSE(retryable(ErrorCode::MalformedFrame));
  EXPECT_FALSE(retryable(ErrorCode::FrameTooLarge));
  EXPECT_FALSE(retryable(ErrorCode::BadMagic));
  EXPECT_FALSE(retryable(ErrorCode::VersionMismatch));
  EXPECT_FALSE(retryable(ErrorCode::Internal));
  EXPECT_FALSE(retryable(ErrorCode::None));
}

// ---------------------------------------------------------------------------
// Health frame + endpoint.
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, HealthFrameRoundTrips) {
  serve::HealthStatus in;
  in.queue_depth = 7;
  in.inflight = 3;
  in.connections = 12;
  in.cache_entries = 99;
  in.requests = 1234;
  in.cache_hits = 567;
  in.executor_ticks = 0xfedcba9876543210ULL;
  in.watchdog_trips = 2;
  in.degraded = true;
  in.draining = true;
  in.workers = 4;
  in.workers_alive = 3;
  in.workers_respawning = 1;
  in.worker_crashes_signal = 5;
  in.worker_crashes_oom = 6;
  in.worker_crashes_rlimit = 7;
  in.worker_crash_retries = 8;
  in.worker_respawns = 9;
  in.quarantined = 10;
  in.worker_pids = {101, 202, 303};

  const serve::Frame f = serve::make_health(in);
  EXPECT_EQ(f.type, serve::FrameType::Health);
  const serve::HealthStatus out = serve::decode_health(f.payload);
  EXPECT_EQ(out.queue_depth, 7u);
  EXPECT_EQ(out.inflight, 3u);
  EXPECT_EQ(out.connections, 12u);
  EXPECT_EQ(out.cache_entries, 99u);
  EXPECT_EQ(out.requests, 1234u);
  EXPECT_EQ(out.cache_hits, 567u);
  EXPECT_EQ(out.executor_ticks, 0xfedcba9876543210ULL);
  EXPECT_EQ(out.watchdog_trips, 2u);
  EXPECT_TRUE(out.degraded);
  EXPECT_TRUE(out.draining);
  EXPECT_EQ(out.workers, 4u);
  EXPECT_EQ(out.workers_alive, 3u);
  EXPECT_EQ(out.workers_respawning, 1u);
  EXPECT_EQ(out.worker_crashes_signal, 5u);
  EXPECT_EQ(out.worker_crashes_oom, 6u);
  EXPECT_EQ(out.worker_crashes_rlimit, 7u);
  EXPECT_EQ(out.worker_crash_retries, 8u);
  EXPECT_EQ(out.worker_respawns, 9u);
  EXPECT_EQ(out.quarantined, 10u);
  EXPECT_EQ(out.worker_pids, (std::vector<std::uint64_t>{101, 202, 303}));

  EXPECT_EQ(serve::make_health_request().type, serve::FrameType::HealthRequest);
  EXPECT_THROW(serve::decode_health({0x01, 0x02}), store::StoreError);
}

TEST_F(ResilienceTest, HealthEndpointReportsServerState) {
  serve::Server server(serve::ServerConfig{});
  server.start();
  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());

  const serve::HealthStatus before = client.health();
  EXPECT_GE(before.connections, 1u);
  EXPECT_FALSE(before.degraded);
  EXPECT_FALSE(before.draining);

  const serve::Reply reply = client.analyze(1, grid_request());
  ASSERT_TRUE(reply.ok);
  const serve::HealthStatus after = client.health();
  // The executor provably made progress and the response cache filled.
  EXPECT_GT(after.executor_ticks, before.executor_ticks);
  EXPECT_GT(after.requests, before.requests);
  EXPECT_GE(after.cache_entries, 1u);
  EXPECT_EQ(after.watchdog_trips, 0u);
  server.shutdown();
}

TEST_F(ResilienceTest, HealthReportsWorkerPoolStateAndIdleKillRespawns) {
  serve::ServerConfig config;
  config.workers = 2;
  config.worker_bin = IND_WORKER_BIN_PATH;
  serve::Server server(config);
  server.start();
  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());

  serve::HealthStatus h = client.health();
  EXPECT_EQ(h.workers, 2u);
  EXPECT_EQ(h.workers_alive, 2u);
  EXPECT_EQ(h.workers_respawning, 0u);
  ASSERT_EQ(h.worker_pids.size(), 2u);
  const std::uint64_t respawns0 = h.worker_respawns;

  // SIGKILL an *idle* worker (no flight anywhere near it): the monitor must
  // reap the corpse and respawn the lane, and the pool must report full
  // strength again — all observable through the health frame.
  ASSERT_EQ(::kill(static_cast<pid_t>(h.worker_pids[0]), SIGKILL), 0);
  ASSERT_TRUE(eventually([&] {
    const serve::HealthStatus now = client.health();
    return now.worker_respawns >= respawns0 + 1 && now.workers_alive == 2;
  }));

  // The respawned lane serves: a request still computes bitwise-normally.
  const serve::Reply reply = client.analyze(7, grid_request(240.0));
  ASSERT_TRUE(reply.ok) << serve::to_string(reply.error.code);
  server.shutdown();
}

// ---------------------------------------------------------------------------
// Watchdog against a live (wedged) server.
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, WatchdogTripsShedsAndRecovers) {
  std::counting_semaphore<16> gate(0);
  serve::ServerConfig config;
  config.before_execute = [&] { gate.acquire(); };
  config.watchdog_interval_ms = 10;
  config.watchdog_stall_intervals = 2;
  serve::Server server(config);
  server.start();

  const std::int64_t trips0 = counter("serve.watchdog_trips");
  const std::int64_t sheds0 = counter("serve.watchdog_sheds");
  const std::int64_t recoveries0 = counter("serve.watchdog_recoveries");

  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());
  // Two DISTINCT requests: the executor pops the first (bumping its progress
  // tick once) and blocks at the gate; the second sits in the queue, so the
  // watchdog sees frozen ticks with work pending — a wedge, not idleness.
  ASSERT_TRUE(client.send_request(1, grid_request(220.0)));
  ASSERT_TRUE(client.send_request(2, grid_request(260.0)));
  ASSERT_TRUE(eventually(
      [&] { return counter("serve.watchdog_trips") >= trips0 + 1; }));
  ASSERT_TRUE(eventually([&] { return server.degraded(); }));

  // While wedged, new work is shed with a structured Busy — fail fast
  // beats queueing behind a dead executor.
  serve::Client shed;
  shed.connect_tcp("127.0.0.1", server.port());
  const serve::Reply busy = shed.analyze(3, grid_request(300.0));
  ASSERT_FALSE(busy.ok);
  EXPECT_TRUE(busy.busy);
  EXPECT_EQ(busy.error.code, serve::ErrorCode::QueueFull);
  EXPECT_GE(counter("serve.watchdog_sheds"), sheds0 + 1);

  // Unblock the executor: the wedge clears and both held requests answer.
  gate.release(8);
  ASSERT_TRUE(eventually([&] {
    return counter("serve.watchdog_recoveries") >= recoveries0 + 1;
  }));
  const serve::Reply r1 = client.read_reply();
  const serve::Reply r2 = client.read_reply();
  EXPECT_TRUE(r1.ok);
  EXPECT_TRUE(r2.ok);
  ASSERT_TRUE(eventually([&] { return !server.degraded(); }));

  // Back to normal service after recovery.
  const serve::Reply again = shed.analyze(4, grid_request(300.0));
  EXPECT_TRUE(again.ok);
  server.shutdown();
}

// ---------------------------------------------------------------------------
// Client-side connection-loss semantics.
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, ReadReplyReturnsConnectionLostOnEof) {
  serve::ServerConfig config;
  serve::Server server(config);
  server.start();
  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());
  server.shutdown();  // server goes away under the client

  // A dead connection is a structured, retryable verdict — not an exception.
  const serve::Reply reply = client.read_reply();
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code, serve::ErrorCode::ConnectionLost);
  EXPECT_TRUE(serve::ResilientClient::retryable(reply.error.code));
}

TEST_F(ResilienceTest, ResilientClientReconnectsAcrossServerRestart) {
  // Pin a port so the restarted server is reachable at the same endpoint.
  serve::ServerConfig config;
  auto server = std::make_unique<serve::Server>(config);
  server->start();
  const int port = server->port();

  serve::Endpoint ep;
  ep.tcp_port = port;
  serve::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_backoff_ms = 20;
  policy.recv_timeout_ms = 2000;
  serve::ResilientClient client(ep, policy);

  const serve::CallOutcome first = client.analyze(1, grid_request(220.0));
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.attempts, 1);

  // Bounce the server. The established connection is now dead; the next call
  // must observe ConnectionLost, reconnect, and still resolve ok.
  server->shutdown();
  config.tcp_port = port;
  server = std::make_unique<serve::Server>(config);
  server->start();
  ASSERT_EQ(server->port(), port);

  const serve::CallOutcome second = client.analyze(2, grid_request(260.0));
  ASSERT_TRUE(second.ok) << serve::to_string(second.reply.error.code);
  EXPECT_GE(second.attempts, 1);
  EXPECT_GE(client.total_reconnects(), 1u);
  server->shutdown();
}

TEST_F(ResilienceTest, ResilientClientReportsTerminalWhenServerStaysDown) {
  // Bind-then-shutdown yields a port with nothing listening.
  serve::Server server(serve::ServerConfig{});
  server.start();
  const int port = server.port();
  server.shutdown();

  serve::Endpoint ep;
  ep.tcp_port = port;
  serve::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff_ms = 1;
  policy.deadline_ms = 2000;
  serve::ResilientClient client(ep, policy);

  const serve::CallOutcome out = client.analyze(7, grid_request());
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.reply.error.code, serve::ErrorCode::ConnectionLost);
  EXPECT_EQ(out.reply.request_id, 7u);
  // Exhaustion is reported honestly: the detail names the attempt count.
  EXPECT_NE(out.reply.error.detail.find("retries exhausted"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Torn connections against the server.
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, ServeSendFaultSiteMarksPeerDeadAndServerSurvives) {
  serve::Server server(serve::ServerConfig{});
  server.start();
  serve::Client victim;
  victim.connect_tcp("127.0.0.1", server.port());
  victim.set_recv_timeout_ms(250);

  // The injected send failure eats the response frame; the victim's bounded
  // read resolves to ConnectionLost instead of hanging forever.
  fault::configure("serve_send@0");
  const serve::Reply starved = victim.analyze(1, grid_request());
  EXPECT_FALSE(starved.ok);
  EXPECT_EQ(starved.error.code, serve::ErrorCode::ConnectionLost);
  EXPECT_EQ(fault::fired(fault::Site::ServeSend), 1);
  victim.close();
  fault::clear();

  // The server treated the undeliverable peer as disconnected and serves the
  // next client normally.
  serve::Client healthy;
  healthy.connect_tcp("127.0.0.1", server.port());
  const serve::Reply ok = healthy.analyze(2, grid_request());
  EXPECT_TRUE(ok.ok);
  server.shutdown();
}

TEST_F(ResilienceTest, MidFrameDisconnectAtEveryByteOffset) {
  serve::Server server(serve::ServerConfig{});
  server.start();

  // Wire image of a handshake followed by a small request frame.
  const auto frame_bytes = [](const serve::Frame& f) {
    std::vector<std::uint8_t> bytes;
    const auto len = static_cast<std::uint32_t>(f.payload.size());
    for (int b = 0; b < 4; ++b)
      bytes.push_back(static_cast<std::uint8_t>(len >> (8 * b)));
    bytes.push_back(static_cast<std::uint8_t>(f.type));
    bytes.insert(bytes.end(), f.payload.begin(), f.payload.end());
    return bytes;
  };
  std::vector<std::uint8_t> image = frame_bytes(serve::make_hello());
  serve::Frame req;
  req.type = serve::FrameType::AnalyzeRequest;
  req.payload.assign(24, 0x5A);  // 8-byte id + deliberately bogus body
  const auto tail = frame_bytes(req);
  image.insert(image.end(), tail.begin(), tail.end());

  // Sever the connection after every possible prefix: inside the hello
  // header, mid-hello, between frames, inside the request header, and at
  // every byte of the request payload. The server must shrug each one off.
  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    std::size_t sent = 0;
    while (sent < cut) {
      const ssize_t w = ::send(fd, image.data() + sent, cut - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(w, 0);
      sent += static_cast<std::size_t>(w);
    }
    ::close(fd);
  }

  // Still fully alive: handshake + analysis succeed, every torn connection
  // is torn down server-side (the health frame sees only this probe), and
  // the reader threads left behind are being reaped.
  serve::Client healthy;
  healthy.connect_tcp("127.0.0.1", server.port());
  const serve::Reply reply = healthy.analyze(1, grid_request());
  EXPECT_TRUE(reply.ok);
  // Regression guard: connections that died before completing the handshake
  // must leave the server's connection table too (they once leaked).
  ASSERT_TRUE(eventually([&] { return healthy.health().connections == 1; }));
  // Reaping rides on accept: probe with fresh connections until the torn
  // readers' threads have been joined (registration races the last accept).
  ASSERT_TRUE(eventually([&] {
    if (counter("serve.readers_reaped") > 0) return true;
    serve::Client probe;
    probe.connect_tcp("127.0.0.1", server.port());
    return counter("serve.readers_reaped") > 0;
  }));
  server.shutdown();
}

// ---------------------------------------------------------------------------
// Crash-safe store recovery.
// ---------------------------------------------------------------------------

class StoreRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear();
    dir_ = ::testing::TempDir() + "ind_recover_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    store::ArtifactCache::instance().configure(dir_);
  }
  void TearDown() override {
    store::ArtifactCache::instance().configure("");
    fs::remove_all(dir_);
    fault::clear();
  }

  static store::Artifact small_artifact(std::uint64_t salt = 0) {
    store::Artifact a;
    a.kind = "test";
    a.fingerprint = {0x0123456789abcdefULL ^ salt, 0xfedcba9876543210ULL};
    store::ByteWriter w;
    w.str("payload");
    w.u64(salt);
    a.add("payload", std::move(w));
    return a;
  }

  std::string dir_;
};

TEST_F(StoreRecoveryTest, StoreWriteFaultLeavesTornTmpAndRecoverQuarantines) {
  auto& cache = store::ArtifactCache::instance();
  const std::int64_t quarantined0 = counter("store.quarantined");

  // A fired store_write is a kill -9 mid-commit: half the image reaches a
  // .tmp file and the rename never happens.
  fault::configure("store_write@0");
  cache.save(small_artifact());
  EXPECT_EQ(fault::fired(fault::Site::StoreWrite), 1);
  fault::clear();

  bool saw_tmp = false;
  for (const auto& de : fs::directory_iterator(dir_))
    saw_tmp |= de.path().filename().string().find(".tmp") != std::string::npos;
  ASSERT_TRUE(saw_tmp) << "torn write left no .tmp orphan";
  // The torn write never produced a loadable entry.
  EXPECT_FALSE(cache.load("test", small_artifact().fingerprint).has_value());

  const auto report = cache.recover();
  EXPECT_EQ(report.quarantined_tmp, 1u);
  EXPECT_EQ(report.quarantined_corrupt, 0u);
  EXPECT_EQ(counter("store.quarantined"), quarantined0 + 1);
  // The orphan is preserved for post-mortem, out of the cache's namespace.
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "quarantine"));
  for (const auto& de : fs::directory_iterator(dir_))
    EXPECT_EQ(de.path().filename().string().find(".tmp"), std::string::npos)
        << de.path();

  // With the fault consumed, the same save commits and survives a sweep.
  cache.save(small_artifact());
  const auto clean = cache.recover();
  EXPECT_EQ(clean.scanned, 1u);
  EXPECT_EQ(clean.recovered, 1u);
  EXPECT_EQ(clean.quarantined_tmp + clean.quarantined_corrupt, 0u);
  EXPECT_TRUE(cache.load("test", small_artifact().fingerprint).has_value());
}

TEST_F(StoreRecoveryTest, RecoverQuarantinesChecksumFailures) {
  auto& cache = store::ArtifactCache::instance();
  const store::Artifact good = small_artifact(1);
  const store::Artifact doomed = small_artifact(2);
  cache.save(good);
  cache.save(doomed);

  // Flip one payload byte behind the cache's back (bit rot / torn sector).
  const std::string path = cache.path_for(doomed.kind, doomed.fingerprint);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(-1, std::ios::end);
    f.put('\x7f');
  }

  const auto report = cache.recover();
  EXPECT_EQ(report.scanned, 2u);
  EXPECT_EQ(report.recovered, 1u);
  EXPECT_EQ(report.quarantined_corrupt, 1u);
  // The intact entry still serves; the corrupt one is gone from the cache.
  EXPECT_TRUE(cache.load(good.kind, good.fingerprint).has_value());
  EXPECT_FALSE(cache.load(doomed.kind, doomed.fingerprint).has_value());
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "quarantine" /
                         fs::path(path).filename()));
}

TEST_F(StoreRecoveryTest, RecoverRejectsRenamedEntries) {
  // An .art file whose name-embedded fingerprint disagrees with its header
  // is an operator mistake (a stray cp); recovery must not let a lookup for
  // fingerprint A ever return artifact B.
  auto& cache = store::ArtifactCache::instance();
  const store::Artifact a = small_artifact(3);
  cache.save(a);
  const store::Digest wrong{0x1111111111111111ULL, 0x2222222222222222ULL};
  fs::rename(cache.path_for(a.kind, a.fingerprint),
             cache.path_for(a.kind, wrong));

  const auto report = cache.recover();
  EXPECT_EQ(report.scanned, 1u);
  EXPECT_EQ(report.recovered, 0u);
  EXPECT_EQ(report.quarantined_corrupt, 1u);
}

TEST_F(StoreRecoveryTest, ConfigureRunsRecoverySweep) {
  auto& cache = store::ArtifactCache::instance();
  cache.save(small_artifact());
  // Plant an orphan exactly where a crashed writer would leave one.
  const std::string orphan = dir_ + "/test-00000000000000000000000000000000"
                                    ".art.tmp12345";
  { std::ofstream(orphan, std::ios::binary) << "partial"; }

  const std::int64_t recovered0 = counter("store.recovered");
  // configure() — i.e. process startup with IND_CACHE_DIR — sweeps without
  // anyone calling recover() explicitly.
  cache.configure(dir_);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "quarantine"));
  EXPECT_EQ(counter("store.recovered"), recovered0 + 1);
  EXPECT_TRUE(cache.load("test", small_artifact().fingerprint).has_value());
}

}  // namespace
