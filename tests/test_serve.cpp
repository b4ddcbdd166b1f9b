// Tests for the multi-tenant analysis server: request/response codec round
// trips (bitwise), the option-spec grammar, request fingerprints, the fair
// scheduler, and the live server end-to-end — in-flight dedup, response-cache
// short-circuit, per-request budget degradation, client-disconnect
// cancellation, malformed/oversized-frame rejection (including the
// serve_read fault-injection site), graceful shutdown, thread-count
// independence of the result bytes, and the run_request path both serving
// modes share (same bytes, codes and details in-process and in workers).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/analyzer.hpp"
#include "geom/topologies.hpp"
#include "govern/budget.hpp"
#include "govern/rlimit.hpp"
#include "robust/diagnostics.hpp"
#include "robust/fault_injection.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/codec.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "store/format.hpp"
#include "store/serde.hpp"

namespace {

using namespace ind;
using geom::um;
namespace fault = robust::fault;

std::int64_t counter(const char* name) {
  return runtime::MetricsRegistry::instance().counter(name).value.load();
}

/// Polls `cond` for up to five seconds (the server responds on its own
/// threads; tests synchronise on the observable counters, never on sleeps).
bool eventually(const std::function<bool()>& cond) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

/// Small Figure-1 testbench; `extent` varies the request body (and thus the
/// fingerprint) between workloads.
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

std::vector<std::uint8_t> encoded(const serve::Request& req) {
  store::ByteWriter w;
  serve::put_request(w, req);
  return w.take();
}

/// Servers mutate the process-wide Governor per request; restore the
/// unbudgeted state so later tests see a clean slate.
class ServeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    govern::Governor::instance().configure({});
    fault::clear();
  }
};

// ---------------------------------------------------------------------------
// Codec round trips.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, RequestRoundTripIsBitwise) {
  serve::Request req = grid_request();
  req.budget.deadline_ms = 1234;
  req.budget.work_units = 99;
  req.include_waveforms = true;
  const auto image = encoded(req);

  serve::Request back;
  store::ByteReader r(image);
  serve::get_request(r, back);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(encoded(back), image);
  EXPECT_EQ(back.budget.deadline_ms, 1234u);
  EXPECT_TRUE(back.include_waveforms);
}

TEST_F(ServeTest, RequestDecodeRejectsTrailingBytes) {
  auto image = encoded(grid_request());
  image.push_back(0x00);
  serve::Request back;
  store::ByteReader r(image);
  EXPECT_THROW(serve::get_request(r, back), store::StoreError);
}

TEST_F(ServeTest, RequestDecodeRejectsOutOfRangeEnum) {
  const serve::Request req = grid_request();
  auto image = encoded(req);
  // The flow octet sits right after the codec version + layout block; flip
  // it to an impossible value by re-encoding with a corrupted options flow.
  store::ByteWriter w;
  w.u16(2);  // kCodecVersion
  store::serde::put(w, req.layout);
  w.u8(0xEE);  // flow — far beyond Flow::LoopRlc
  auto corrupt = w.take();
  // Splice the tail of the valid image (everything after the flow octet).
  const std::size_t head = corrupt.size();
  corrupt.insert(corrupt.end(), image.begin() + static_cast<std::ptrdiff_t>(head),
                 image.end());
  serve::Request back;
  store::ByteReader r(corrupt);
  EXPECT_THROW(serve::get_request(r, back), std::invalid_argument);
}

TEST_F(ServeTest, ResultBlockRoundTripsWithWaveforms) {
  core::AnalysisReport report;
  report.flow = core::Flow::PeecRlcBlockDiag;
  report.requested_flow = core::Flow::PeecRlcFull;
  report.degradations = {"peec_rlc->peec_rlc_blockdiag [work]"};
  report.counts.resistors = 10;
  report.counts.inductors = 7;
  report.counts.mutuals = 21;
  report.unknowns = 42;
  report.worst_delay = 1.25e-10;
  report.best_delay = 1.0e-10;
  report.skew = 2.5e-11;
  report.worst_sink = "sink3";
  report.overshoot = 0.07;
  report.build_seconds = 9.9;  // timings must NOT enter the result block
  report.time = {0.0, 1e-12, 2e-12};
  report.sink_names = {"a", "b"};
  report.sink_waveforms = {{0.0, 0.5, 1.0}, {0.0, 0.4, 0.9}};

  const auto bytes = serve::encode_result(report, true);
  core::AnalysisReport back;
  serve::decode_result(bytes, back);
  EXPECT_EQ(serve::encode_result(back, true), bytes);
  EXPECT_EQ(back.flow, core::Flow::PeecRlcBlockDiag);
  EXPECT_EQ(back.degradations, report.degradations);
  EXPECT_EQ(back.sink_waveforms, report.sink_waveforms);
  EXPECT_EQ(back.worst_sink, "sink3");
  // Wall-clock fields are stats, not results.
  EXPECT_EQ(back.build_seconds, 0.0);

  // Without waveforms the samples are elided but the names travel.
  const auto lean = serve::encode_result(report, false);
  ASSERT_LT(lean.size(), bytes.size());
  core::AnalysisReport lean_back;
  serve::decode_result(lean, lean_back);
  EXPECT_TRUE(lean_back.sink_waveforms.empty());
  EXPECT_EQ(lean_back.sink_names, report.sink_names);
}

TEST_F(ServeTest, ResponsePayloadRoundTrips) {
  core::AnalysisReport report;
  report.worst_delay = 3.5e-10;
  const auto result = serve::encode_result(report, false);
  const auto payload = serve::encode_response_payload(
      77, serve::Response::ServedBy::Coalesced, 1.5, 2.5, 0.25, result);
  serve::Response out;
  EXPECT_EQ(serve::decode_response_payload(payload, out), 77u);
  EXPECT_EQ(out.served_by, serve::Response::ServedBy::Coalesced);
  EXPECT_DOUBLE_EQ(out.build_seconds, 1.5);
  EXPECT_DOUBLE_EQ(out.queue_seconds, 0.25);
  EXPECT_EQ(out.result_bytes, result);
  EXPECT_DOUBLE_EQ(out.report.worst_delay, 3.5e-10);
}

// ---------------------------------------------------------------------------
// Option-spec grammar.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, OptionSpecAppliesEveryKnob) {
  const auto opts = serve::options_from_spec(
      "flow=peec_rlc_prima signal_net=7 seg_um=120 t_stop=1.5e-9 dt=2e-12 "
      "vdd=1.8 decap_sites=9; loop_seg_um=140 loop_extract_um=160 "
      "trunc_ratio=0.03 shell_um=55 kmatrix_ratio=0.01 prima_order=24");
  EXPECT_EQ(opts.flow, core::Flow::PeecRlcPrima);
  EXPECT_EQ(opts.signal_net, 7);
  EXPECT_DOUBLE_EQ(opts.peec.max_segment_length, um(120));
  EXPECT_DOUBLE_EQ(opts.transient.t_stop, 1.5e-9);
  EXPECT_DOUBLE_EQ(opts.transient.dt, 2e-12);
  EXPECT_DOUBLE_EQ(opts.peec.vdd, 1.8);
  EXPECT_DOUBLE_EQ(opts.loop.vdd, 1.8);
  EXPECT_EQ(opts.peec.decap.sites, 9);
  EXPECT_DOUBLE_EQ(opts.loop.max_segment_length, um(140));
  EXPECT_DOUBLE_EQ(opts.loop.extraction.max_segment_length, um(160));
  EXPECT_DOUBLE_EQ(opts.params.truncation_ratio, 0.03);
  EXPECT_DOUBLE_EQ(opts.params.shell_radius, um(55));
  EXPECT_DOUBLE_EQ(opts.params.kmatrix_ratio, 0.01);
  EXPECT_EQ(opts.params.prima_order, 24u);
}

TEST_F(ServeTest, OptionSpecRejectsMalformedTokens) {
  EXPECT_THROW(serve::options_from_spec("flow=warp_drive"),
               std::invalid_argument);
  EXPECT_THROW(serve::options_from_spec("unknown_knob=1"),
               std::invalid_argument);
  EXPECT_THROW(serve::options_from_spec("seg_um=abc"), std::invalid_argument);
  EXPECT_THROW(serve::options_from_spec("just_a_word"), std::invalid_argument);
  EXPECT_THROW(serve::options_from_spec("=5"), std::invalid_argument);
  EXPECT_NO_THROW(serve::options_from_spec("  "));  // empty spec is fine
}

// ---------------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, FingerprintIsStableAndSensitive) {
  const serve::Request a = grid_request(220.0);
  const serve::Request b = grid_request(220.0);
  EXPECT_EQ(serve::request_fingerprint(a), serve::request_fingerprint(b));

  serve::Request c = grid_request(220.0);
  c.options.transient.dt = 4e-12;
  EXPECT_NE(serve::request_fingerprint(a), serve::request_fingerprint(c));

  // The budget is part of the closure: different caps, different key.
  serve::Request d = grid_request(220.0);
  d.budget.work_units = 12345;
  EXPECT_NE(serve::request_fingerprint(a), serve::request_fingerprint(d));

  const serve::Request e = grid_request(260.0);
  EXPECT_NE(serve::request_fingerprint(a), serve::request_fingerprint(e));
}

TEST_F(ServeTest, FingerprintKeyedByEffectiveBudget) {
  // Admission clamps the request's budget to the server caps and then
  // hashes the request as it will actually run. Requests whose budgets clamp
  // to the same values share a key; a cap change yields a different key, so
  // cached results computed under old caps can never be replayed after a
  // restart.
  serve::Request a = grid_request();
  serve::Request b = grid_request();
  a.budget.work_units = 500;
  b.budget.work_units = 1000;
  EXPECT_NE(serve::request_fingerprint(a), serve::request_fingerprint(b));

  const auto admitted = [](serve::Request req, std::uint64_t work_cap) {
    govern::RunBudget caps;
    caps.work_units = work_cap;
    req.budget = serve::clamp_budget(req.budget, caps);
    return serve::request_fingerprint(req);
  };
  EXPECT_EQ(admitted(a, 100), admitted(b, 100));  // both clamp to 100
  EXPECT_NE(admitted(a, 100), admitted(a, 50));

  // With no caps the admitted request is the requested one.
  EXPECT_EQ(admitted(a, 0), serve::request_fingerprint(a));

  // Persisted serve_response artifacts are keyed by this hex: it must not
  // move when the serving code is refactored.
  EXPECT_EQ(admitted(a, 100).hex(), "4f634cc8439daa61f19001cca4bd01e5");
}

// ---------------------------------------------------------------------------
// Fair scheduler.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, SchedulerDrainsClientsRoundRobin) {
  serve::FairScheduler<int> sched(8, 64);
  // Client 1 floods; client 2 sends one.
  EXPECT_EQ(sched.push(1, 10), serve::Admit::Ok);
  EXPECT_EQ(sched.push(1, 11), serve::Admit::Ok);
  EXPECT_EQ(sched.push(1, 12), serve::Admit::Ok);
  EXPECT_EQ(sched.push(2, 20), serve::Admit::Ok);
  int job = 0;
  std::vector<int> order;
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(sched.pop(job));
    order.push_back(job);
  }
  // 10 before 20 (client 1 joined first), then strict alternation until
  // client 2 drains: the flood waits behind exactly one of its own jobs.
  EXPECT_EQ(order, (std::vector<int>{10, 20, 11, 12}));
}

TEST_F(ServeTest, SchedulerEnforcesBoundsAndDrains) {
  serve::FairScheduler<int> sched(2, 3);
  EXPECT_EQ(sched.push(1, 1), serve::Admit::Ok);
  EXPECT_EQ(sched.push(1, 2), serve::Admit::Ok);
  EXPECT_EQ(sched.push(1, 3), serve::Admit::ClientFull);
  EXPECT_EQ(sched.push(2, 4), serve::Admit::Ok);
  EXPECT_EQ(sched.push(3, 5), serve::Admit::ServerFull);
  EXPECT_EQ(sched.depth(), 3u);

  sched.shutdown();
  EXPECT_EQ(sched.push(4, 6), serve::Admit::Draining);
  // pop keeps returning the queued jobs, then signals exit.
  int job = 0;
  EXPECT_TRUE(sched.pop(job));
  EXPECT_TRUE(sched.pop(job));
  EXPECT_TRUE(sched.pop(job));
  EXPECT_FALSE(sched.pop(job));
}

// ---------------------------------------------------------------------------
// End-to-end server behaviour.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, ServesAnalyzeRequestOverTcp) {
  serve::Server server(serve::ServerConfig{});
  server.start();
  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());
  EXPECT_FALSE(client.server_id().empty());

  const serve::Reply reply = client.analyze(42, grid_request());
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.request_id, 42u);
  EXPECT_EQ(reply.response.served_by, serve::Response::ServedBy::Computed);
  EXPECT_EQ(reply.response.report.flow, core::Flow::PeecRlcFull);
  EXPECT_GT(reply.response.report.worst_delay, 0.0);
  EXPECT_TRUE(reply.response.report.degradations.empty());
  EXPECT_GT(reply.response.build_seconds, 0.0);
  server.shutdown();
  EXPECT_FALSE(server.running());
}

TEST_F(ServeTest, CoalescesIdenticalInFlightRequests) {
  constexpr int kDuplicates = 6;
  std::counting_semaphore<kDuplicates + 1> gate(0);
  serve::ServerConfig config;
  config.before_execute = [&] { gate.acquire(); };
  serve::Server server(config);
  server.start();

  const std::int64_t dedup0 = counter("serve.dedup_hits");
  const std::int64_t computed0 = counter("serve.computed");

  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());
  const serve::Request req = grid_request();
  for (int k = 0; k < kDuplicates; ++k)
    ASSERT_TRUE(client.send_request(static_cast<std::uint64_t>(k), req));

  // The executor is held at the gate; every duplicate after the first must
  // attach to the in-flight entry before any computation happens.
  ASSERT_TRUE(eventually(
      [&] { return counter("serve.dedup_hits") == dedup0 + kDuplicates - 1; }));
  gate.release(kDuplicates);

  int computed = 0, coalesced = 0;
  std::vector<std::uint8_t> first_result;
  for (int k = 0; k < kDuplicates; ++k) {
    const serve::Reply reply = client.read_reply();
    ASSERT_TRUE(reply.ok) << serve::to_string(reply.error.code);
    if (reply.response.served_by == serve::Response::ServedBy::Computed)
      ++computed;
    if (reply.response.served_by == serve::Response::ServedBy::Coalesced)
      ++coalesced;
    if (first_result.empty())
      first_result = reply.response.result_bytes;
    else  // N identical requests -> N bitwise-identical result blocks
      EXPECT_EQ(reply.response.result_bytes, first_result);
  }
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(coalesced, kDuplicates - 1);
  EXPECT_EQ(counter("serve.computed"), computed0 + 1);
  server.shutdown();
}

TEST_F(ServeTest, CacheHitShortCircuitsRepeatRequests) {
  serve::Server server(serve::ServerConfig{});
  server.start();
  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());
  const serve::Request req = grid_request();

  const serve::Reply first = client.analyze(1, req);
  ASSERT_TRUE(first.ok);
  ASSERT_EQ(first.response.served_by, serve::Response::ServedBy::Computed);

  const std::int64_t cache0 = counter("serve.cache_hits");
  const serve::Reply second = client.analyze(2, req);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.response.served_by, serve::Response::ServedBy::Cache);
  EXPECT_EQ(second.response.result_bytes, first.response.result_bytes);
  EXPECT_EQ(counter("serve.cache_hits"), cache0 + 1);

  // A different tenant connection hits the same cache.
  serve::Client other;
  other.connect_tcp("127.0.0.1", server.port());
  const serve::Reply third = other.analyze(3, req);
  ASSERT_TRUE(third.ok);
  EXPECT_EQ(third.response.served_by, serve::Response::ServedBy::Cache);
  EXPECT_EQ(third.response.result_bytes, first.response.result_bytes);
  server.shutdown();
}

TEST_F(ServeTest, PerRequestWorkBudgetSurfacesDegradations) {
  // Size the budget between the full-fidelity cost and the first rung down,
  // exactly like the govern ladder tests: the server must run the analysis
  // under the request's budget and return the degradation trail.
  geom::Layout layout(geom::default_tech());
  geom::DriverReceiverGridSpec spec;
  spec.grid.extent_x = um(600);
  spec.grid.extent_y = um(600);
  spec.grid.pitch = um(100);
  spec.grid.pads_per_side = 1;
  spec.signal_length = um(500);
  spec.signal_width = um(3);
  const auto nets = geom::add_driver_receiver_grid(layout, spec);

  serve::Request req;
  req.layout = layout;
  req.options = serve::options_from_spec(
      "flow=peec_rlc seg_um=150 t_stop=1.2e-9 dt=2e-12 decap_sites=4 "
      "loop_seg_um=150 loop_extract_um=150");
  req.options.signal_net = nets.signal_net;

  auto& gov = govern::Governor::instance();
  gov.configure({});
  const auto full = core::analyze(layout, req.options);
  ASSERT_TRUE(full.degradations.empty());
  const std::uint64_t w_full = gov.work_units();
  auto bd_options = req.options;
  bd_options.flow = core::Flow::PeecRlcBlockDiag;
  gov.configure({});
  (void)core::analyze(layout, bd_options);
  const std::uint64_t w_bd = gov.work_units();
  ASSERT_LT(w_bd, w_full);

  req.budget.work_units = w_bd + (w_full - w_bd) / 2;

  serve::Server server(serve::ServerConfig{});
  server.start();
  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());
  const serve::Reply reply = client.analyze(9, req);
  ASSERT_TRUE(reply.ok) << serve::to_string(reply.error.code);
  EXPECT_EQ(reply.response.report.requested_flow, core::Flow::PeecRlcFull);
  EXPECT_EQ(reply.response.report.flow, core::Flow::PeecRlcBlockDiag);
  ASSERT_FALSE(reply.response.report.degradations.empty());
  EXPECT_NE(reply.response.report.degradations[0].find("[work]"),
            std::string::npos);
  server.shutdown();
}

TEST_F(ServeTest, ServerBudgetCapsClampRequestBudgets) {
  serve::ServerConfig config;
  config.budget_caps.work_units = 50;  // far below any real analysis
  serve::Server server(config);
  server.start();
  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());

  // The request asks for an unlimited budget; the server cap must win. 50
  // units exhausts even the cheapest ladder rung, so the run is cancelled.
  const serve::Reply reply = client.analyze(1, grid_request());
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code, serve::ErrorCode::DeadlineExceeded);
  server.shutdown();
}

TEST_F(ServeTest, DisconnectedClientsRequestIsAbandoned) {
  std::counting_semaphore<4> gate(0);
  serve::ServerConfig config;
  config.before_execute = [&] { gate.acquire(); };
  serve::Server server(config);
  server.start();

  const std::int64_t requests0 = counter("serve.requests");
  const std::int64_t abandoned0 = counter("serve.abandoned");
  const std::int64_t computed0 = counter("serve.computed");
  const std::int64_t disconnects0 = counter("serve.disconnects");
  {
    serve::Client doomed;
    doomed.connect_tcp("127.0.0.1", server.port());
    ASSERT_TRUE(doomed.send_request(1, grid_request()));
    ASSERT_TRUE(
        eventually([&] { return counter("serve.requests") == requests0 + 1; }));
  }  // disconnect while the executor is held at the gate
  // The reader must have removed the waiter before the executor looks.
  ASSERT_TRUE(eventually(
      [&] { return counter("serve.disconnects") == disconnects0 + 1; }));

  gate.release();
  ASSERT_TRUE(
      eventually([&] { return counter("serve.abandoned") == abandoned0 + 1; }));
  EXPECT_EQ(counter("serve.computed"), computed0);  // nothing was computed

  // The server keeps serving afterwards.
  serve::Client alive;
  alive.connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(alive.send_request(2, grid_request()));
  gate.release();
  const serve::Reply reply = alive.read_reply();
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.response.served_by, serve::Response::ServedBy::Computed);
  server.shutdown();
}

TEST_F(ServeTest, FinishedReaderThreadsAreReaped) {
  serve::Server server(serve::ServerConfig{});
  server.start();

  const std::int64_t reaped0 = counter("serve.readers_reaped");
  const std::int64_t disconnects0 = counter("serve.disconnects");
  constexpr int kChurn = 8;
  for (int k = 0; k < kChurn; ++k) {
    serve::Client client;
    client.connect_tcp("127.0.0.1", server.port());
  }  // each connection closes as the client goes out of scope
  ASSERT_TRUE(eventually(
      [&] { return counter("serve.disconnects") == disconnects0 + kChurn; }));

  // Each accept joins the reader threads that finished before it: a
  // long-running daemon serving short-lived connections must not accumulate
  // joinable stacks. Probe repeatedly — a reader registers for reaping just
  // after its disconnect is counted, so one probe may arrive too early.
  ASSERT_TRUE(eventually([&] {
    if (counter("serve.readers_reaped") >= reaped0 + kChurn) return true;
    serve::Client probe;
    probe.connect_tcp("127.0.0.1", server.port());
    return counter("serve.readers_reaped") >= reaped0 + kChurn;
  }));
  server.shutdown();
}

// ---------------------------------------------------------------------------
// Protocol hardening.
// ---------------------------------------------------------------------------

/// Raw TCP connect with no handshake, for speaking deliberately broken
/// protocol at the server.
int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

TEST_F(ServeTest, HandshakeRejectsBadMagicAndVersion) {
  serve::Server server(serve::ServerConfig{});
  server.start();

  {  // wrong magic
    const int fd = raw_connect(server.port());
    serve::Frame hello = serve::make_hello();
    hello.payload[0] = 'X';
    ASSERT_TRUE(serve::write_frame(fd, hello));
    const auto reply = serve::read_frame(fd, 1 << 20);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, serve::FrameType::Error);
    EXPECT_EQ(serve::decode_error(reply->payload).code,
              serve::ErrorCode::BadMagic);
    // The server closes after a rejected handshake.
    EXPECT_FALSE(serve::read_frame(fd, 1 << 20).has_value());
    ::close(fd);
  }
  {  // wrong version
    const int fd = raw_connect(server.port());
    serve::Frame hello = serve::make_hello();
    hello.payload[sizeof serve::kHelloMagic] = 0x63;  // version 99
    ASSERT_TRUE(serve::write_frame(fd, hello));
    const auto reply = serve::read_frame(fd, 1 << 20);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, serve::FrameType::Error);
    EXPECT_EQ(serve::decode_error(reply->payload).code,
              serve::ErrorCode::VersionMismatch);
    ::close(fd);
  }
  {  // first frame is not a Hello at all
    const int fd = raw_connect(server.port());
    serve::Frame bogus;
    bogus.type = serve::FrameType::AnalyzeRequest;
    ASSERT_TRUE(serve::write_frame(fd, bogus));
    const auto reply = serve::read_frame(fd, 1 << 20);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(serve::decode_error(reply->payload).code,
              serve::ErrorCode::BadMagic);
    ::close(fd);
  }
  server.shutdown();
}

TEST_F(ServeTest, MalformedAndOversizedFramesGetStructuredErrors) {
  serve::Server server(serve::ServerConfig{});
  server.start();

  {  // garbage request payload: the 8-byte id decodes, the body does not
    serve::Client client;
    client.connect_tcp("127.0.0.1", server.port());
    serve::Frame f;
    f.type = serve::FrameType::AnalyzeRequest;
    f.payload.assign(12, 0xAB);
    ASSERT_TRUE(client.send_raw(f));
    const serve::Reply reply = client.read_reply();
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.error.code, serve::ErrorCode::MalformedFrame);
  }
  {  // frame header declaring a payload beyond the server cap
    serve::Client client;
    client.connect_tcp("127.0.0.1", server.port());
    std::uint8_t header[5];
    const std::uint32_t huge = serve::kDefaultMaxFrameBytes + 1;
    std::memcpy(header, &huge, sizeof huge);
    header[4] = static_cast<std::uint8_t>(serve::FrameType::AnalyzeRequest);
    ASSERT_TRUE(client.send_bytes(header, sizeof header));
    const serve::Reply reply = client.read_reply();
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.error.code, serve::ErrorCode::FrameTooLarge);
  }
  {  // truncated frame: header promises 100 bytes, the peer dies after 10
    serve::Client client;
    client.connect_tcp("127.0.0.1", server.port());
    std::uint8_t header[5];
    const std::uint32_t len = 100;
    std::memcpy(header, &len, sizeof len);
    header[4] = static_cast<std::uint8_t>(serve::FrameType::AnalyzeRequest);
    ASSERT_TRUE(client.send_bytes(header, sizeof header));
    std::uint8_t partial[10] = {};
    ASSERT_TRUE(client.send_bytes(partial, sizeof partial));
    client.close();
  }
  // The server survives all of it and keeps serving.
  serve::Client healthy;
  healthy.connect_tcp("127.0.0.1", server.port());
  const serve::Reply ok = healthy.analyze(5, grid_request(240.0));
  EXPECT_TRUE(ok.ok);
  server.shutdown();
}

TEST_F(ServeTest, ServeReadFaultSiteForcesMalformedPath) {
  serve::Server server(serve::ServerConfig{});
  server.start();
  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());

  const std::int64_t errors0 = counter("serve.protocol_errors");
  fault::configure("serve_read@0");
  const serve::Reply bad = client.analyze(1, grid_request());
  ASSERT_FALSE(bad.ok);
  EXPECT_EQ(bad.error.code, serve::ErrorCode::MalformedFrame);
  EXPECT_NE(bad.error.detail.find("serve_read"), std::string::npos);
  EXPECT_EQ(fault::fired(fault::Site::ServeRead), 1);
  EXPECT_EQ(counter("serve.protocol_errors"), errors0 + 1);

  // Index 0 was consumed; the retry decodes cleanly (same connection).
  const serve::Reply good = client.analyze(2, grid_request());
  EXPECT_TRUE(good.ok);
  fault::clear();
  server.shutdown();
}

// ---------------------------------------------------------------------------
// Shutdown and determinism.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, GracefulShutdownDrainsAdmittedWork) {
  serve::Server server(serve::ServerConfig{});
  server.start();
  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());

  const std::int64_t admitted0 = counter("serve.admitted");
  ASSERT_TRUE(client.send_request(1, grid_request(220.0)));
  ASSERT_TRUE(client.send_request(2, grid_request(260.0)));
  ASSERT_TRUE(
      eventually([&] { return counter("serve.admitted") == admitted0 + 2; }));

  // Shutdown must drain both admitted requests before the threads join.
  std::thread stopper([&] { server.shutdown(); });
  int answered = 0;
  for (int k = 0; k < 2; ++k) {
    const serve::Reply reply = client.read_reply();
    if (reply.ok) ++answered;
  }
  stopper.join();
  EXPECT_EQ(answered, 2);
  EXPECT_FALSE(server.running());
  // Idempotent: a second shutdown is a no-op.
  server.shutdown();
}

TEST_F(ServeTest, ResultBytesIdenticalAcrossThreadCounts) {
  const serve::Request req = grid_request();
  std::vector<std::uint8_t> result_at_1, result_at_2;

  runtime::set_global_threads(1);
  {
    serve::Server server(serve::ServerConfig{});
    server.start();
    serve::Client client;
    client.connect_tcp("127.0.0.1", server.port());
    const serve::Reply reply = client.analyze(1, req);
    ASSERT_TRUE(reply.ok);
    result_at_1 = reply.response.result_bytes;
    server.shutdown();
  }
  runtime::set_global_threads(2);
  {
    serve::Server server(serve::ServerConfig{});
    server.start();
    serve::Client client;
    client.connect_tcp("127.0.0.1", server.port());
    const serve::Reply reply = client.analyze(1, req);
    ASSERT_TRUE(reply.ok);
    ASSERT_EQ(reply.response.served_by, serve::Response::ServedBy::Computed);
    result_at_2 = reply.response.result_bytes;
    server.shutdown();
  }
  runtime::set_global_threads(0);  // restore the configured default

  ASSERT_FALSE(result_at_1.empty());
  EXPECT_EQ(result_at_1, result_at_2);
}

// ---------------------------------------------------------------------------
// Process-isolated worker lanes (IND_SERVE_WORKERS > 0).
// ---------------------------------------------------------------------------

/// Worker-mode server config: N sandboxed lanes running the ind_worker
/// binary the build just produced (path baked in by tests/CMakeLists.txt).
serve::ServerConfig worker_config(std::size_t workers) {
  serve::ServerConfig config;
  config.workers = workers;
  config.worker_bin = IND_WORKER_BIN_PATH;
  return config;
}

std::vector<std::uint8_t> analyze_result_bytes(serve::Server& server,
                                               const serve::Request& req) {
  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());
  const serve::Reply reply = client.analyze(1, req);
  EXPECT_TRUE(reply.ok) << serve::to_string(reply.error.code) << ": "
                        << reply.error.detail;
  if (!reply.ok) return {};
  EXPECT_EQ(reply.response.served_by, serve::Response::ServedBy::Computed);
  return reply.response.result_bytes;
}

TEST(WorkerExitClassification, MapsWaitStatusToCrashKind) {
  // glibc wstatus encoding: exited = code << 8, signaled = signo in the low
  // seven bits.
  using robust::CrashKind;
  EXPECT_EQ(serve::classify_worker_exit(0), CrashKind::ExitError);
  EXPECT_EQ(serve::classify_worker_exit(1 << 8), CrashKind::ExitError);
  EXPECT_EQ(serve::classify_worker_exit(govern::kWorkerOomExitCode << 8),
            CrashKind::RlimitMem);
  EXPECT_EQ(serve::classify_worker_exit(SIGSEGV), CrashKind::Signal);
  EXPECT_EQ(serve::classify_worker_exit(SIGABRT), CrashKind::Signal);
  EXPECT_EQ(serve::classify_worker_exit(SIGKILL), CrashKind::OomKill);
  EXPECT_EQ(serve::classify_worker_exit(SIGXCPU), CrashKind::RlimitCpu);
  EXPECT_STREQ(robust::to_string(CrashKind::RlimitMem), "rlimit_mem");
  EXPECT_STREQ(robust::to_string(CrashKind::Signal), "signal");
}

#if defined(__SANITIZE_ADDRESS__)
#define IND_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IND_UNDER_ASAN 1
#endif
#endif

TEST(WorkerExitClassification, AllocationFailureExitsAsRlimitMem) {
#ifdef IND_UNDER_ASAN
  GTEST_SKIP() << "ASan's allocator aborts instead of returning null";
#else
  // What ind_worker's main installs: an allocation that fails anywhere in
  // the worker must end the process with the OOM exit code, which the
  // supervisor classifies as an RLIMIT_AS trip.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    govern::exit_on_allocation_failure();
    void* volatile p = ::operator new(static_cast<std::size_t>(-1) / 2);
    ::operator delete(p);
    ::_exit(0);  // unreachable unless the allocation succeeded
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), govern::kWorkerOomExitCode);
  EXPECT_EQ(serve::classify_worker_exit(wstatus), robust::CrashKind::RlimitMem);
#endif
}

TEST_F(ServeTest, WorkerModeResultsBitwiseIdenticalToInProcess) {
  const serve::Request req = grid_request();
  std::vector<std::uint8_t> inproc, worker;
  {
    serve::Server server(serve::ServerConfig{});
    server.start();
    inproc = analyze_result_bytes(server, req);
    server.shutdown();
  }
  {
    serve::Server server(worker_config(2));
    server.start();
    worker = analyze_result_bytes(server, req);
    server.shutdown();
  }
  ASSERT_FALSE(inproc.empty());
  // The serde round-trip oracle: the worker ran the same deterministic
  // kernels from the same dispatched bytes, so the RESULT block must be
  // bitwise identical to the in-process path.
  EXPECT_EQ(worker, inproc);
}

TEST_F(ServeTest, WorkerCrashMidFlightRetriesOnSiblingBitwise) {
  const serve::Request req = grid_request();
  std::vector<std::uint8_t> inproc;
  {
    serve::Server server(serve::ServerConfig{});
    server.start();
    inproc = analyze_result_bytes(server, req);
    server.shutdown();
  }

#ifdef IND_UNDER_ASAN
  // An ASan-built worker would catch the SIGSEGV, print a report and exit 1
  // (classified exit_error). Let the signal kill it, as in a normal build.
  const char* asan_env = std::getenv("ASAN_OPTIONS");
  const std::string asan_prev = asan_env ? asan_env : "";
  ::setenv("ASAN_OPTIONS", (asan_prev + ":handle_segv=0").c_str(), 1);
#endif
  const std::int64_t crashes0 = counter("serve.worker.crashes.signal");
  const std::int64_t retries0 = counter("serve.worker.retries");
  // Kill exactly the first dispatched worker (SIGSEGV mid-flight); the
  // supervisor must retry the flight on a sibling and the tenant must see
  // the same bytes an undisturbed run produces.
  fault::configure("worker_exec@0");
  serve::Server server(worker_config(2));
  server.start();
  const std::vector<std::uint8_t> retried = analyze_result_bytes(server, req);
  EXPECT_EQ(retried, inproc);
  EXPECT_EQ(counter("serve.worker.crashes.signal"), crashes0 + 1);
  EXPECT_EQ(counter("serve.worker.retries"), retries0 + 1);
  server.shutdown();
#ifdef IND_UNDER_ASAN
  ::setenv("ASAN_OPTIONS", asan_prev.c_str(), 1);
#endif
}

TEST_F(ServeTest, PoisonedRequestQuarantinedAfterThresholdKills) {
  const std::int64_t quarantined0 = counter("serve.worker.quarantined");
  const std::int64_t rejects0 = counter("serve.worker.poison_rejects");

  // Every delivered dispatch dies: the poison threshold (2 kills) trips on
  // the first flight's retry and quarantines the fingerprint.
  fault::configure("worker_exec@*");
  serve::Server server(worker_config(2));
  server.start();
  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());

  const serve::Request poison = grid_request(220.0);
  const serve::Reply first = client.analyze(1, poison);
  ASSERT_FALSE(first.ok);
  EXPECT_EQ(first.error.code, serve::ErrorCode::PoisonedRequest);
  EXPECT_EQ(counter("serve.worker.quarantined"), quarantined0 + 1);

  // Same bytes again: rejected at admission, no worker ever sees them.
  const serve::Reply again = client.analyze(2, poison);
  ASSERT_FALSE(again.ok);
  EXPECT_EQ(again.error.code, serve::ErrorCode::PoisonedRequest);
  EXPECT_EQ(counter("serve.worker.poison_rejects"), rejects0 + 1);

  // The quarantine is per-fingerprint: with the fault lifted, a different
  // tenant asking for a different body is served normally — two dead
  // workers did not take the server down.
  fault::clear();
  serve::Client other;
  other.connect_tcp("127.0.0.1", server.port());
  const serve::Reply healthy = other.analyze(3, grid_request(300.0));
  ASSERT_TRUE(healthy.ok) << serve::to_string(healthy.error.code);
  EXPECT_EQ(healthy.response.served_by, serve::Response::ServedBy::Computed);
  server.shutdown();
}

TEST_F(ServeTest, OversizedWorkerReplyIsStructuredErrorNotLaneWedge) {
  // Regression: a reply above max_frame_bytes used to deadlock a worker lane
  // permanently — the supervisor's read threw FrameTooLarge, then blocked in
  // waitpid() on the *live* worker still writing the rest of the oversized
  // frame — and in-process mode sent the oversized frame anyway. run_request
  // now checks the reply against the cap in both modes and answers a small
  // structured FrameTooLarge error instead (the supervisor still SIGKILLs
  // before reaping as a backstop), so the tenant gets the same structured
  // reply either way and the lane keeps serving.
  serve::Request big = grid_request(240.0);
  big.include_waveforms = true;
  big.options.transient.t_stop = 5e-9;  // 5000 f64 samples per sink: the
  big.options.transient.dt = 1e-12;     // encoded reply dwarfs the 16 KiB cap

  std::vector<std::string> details;
  for (const std::size_t workers : {0, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    serve::ServerConfig config = worker_config(workers);
    config.max_frame_bytes = 16u << 10;
    ASSERT_LT(encoded(big).size() + 64, config.max_frame_bytes)
        << "request must still fit under the cap for this test to be valid";

    const std::int64_t crashes0 = counter("serve.worker.crashes");
    const std::int64_t retries0 = counter("serve.worker.retries");
    serve::Server server(config);
    server.start();
    serve::Client client;
    client.connect_tcp("127.0.0.1", server.port());

    const serve::Reply reply = client.analyze(1, big);
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.error.code, serve::ErrorCode::FrameTooLarge);
    details.push_back(reply.error.detail);
    // The worker stayed alive and answered structurally: no crash, no retry.
    EXPECT_EQ(counter("serve.worker.crashes"), crashes0);
    EXPECT_EQ(counter("serve.worker.retries"), retries0);

    // The same lanes keep serving flights that fit.
    serve::Client healthy;
    healthy.connect_tcp("127.0.0.1", server.port());
    const serve::Reply ok = healthy.analyze(2, grid_request(300.0));
    ASSERT_TRUE(ok.ok) << serve::to_string(ok.error.code) << ": "
                       << ok.error.detail;
    server.shutdown();
  }
  EXPECT_EQ(details[0], details[1]);
}

TEST_F(ServeTest, RunRequestIsAnalyzePlusEncode) {
  const serve::Request req = grid_request();
  const serve::Outcome out =
      serve::run_request(req, serve::kDefaultMaxFrameBytes);
  ASSERT_EQ(out.code, serve::ErrorCode::None) << out.detail;
  govern::Governor::instance().configure({});
  const core::AnalysisReport report = core::analyze(req.layout, req.options);
  EXPECT_EQ(out.result_bytes, serve::encode_result(report, false));
  EXPECT_GT(out.build_seconds, 0.0);

  serve::Request bad = grid_request();
  bad.options.flow = core::Flow::LoopRlc;
  bad.options.signal_net = -1;  // LoopRlc needs a signal net
  const serve::Outcome rejected =
      serve::run_request(bad, serve::kDefaultMaxFrameBytes);
  EXPECT_EQ(rejected.code, serve::ErrorCode::BadRequest);
  EXPECT_NE(rejected.detail.find("signal_net"), std::string::npos)
      << rejected.detail;
  EXPECT_TRUE(rejected.result_bytes.empty());
}

TEST_F(ServeTest, ErrorRepliesIdenticalAcrossServingModes) {
  // Both modes answer through the one run_request, so a failing request
  // gets the same code *and* detail whether it ran in-process or in a
  // sandboxed worker.
  serve::Request bad = grid_request();
  bad.options.flow = core::Flow::LoopRlc;
  bad.options.signal_net = -1;

  std::vector<serve::ErrorInfo> bad_replies, deadline_replies;
  for (const std::size_t workers : {0, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    serve::ServerConfig config = worker_config(workers);
    config.budget_caps.work_units = 50;  // starves every ladder rung
    serve::Server server(config);
    server.start();
    serve::Client client;
    client.connect_tcp("127.0.0.1", server.port());
    const serve::Reply rejected = client.analyze(1, bad);
    const serve::Reply starved = client.analyze(2, grid_request());
    server.shutdown();
    ASSERT_FALSE(rejected.ok);
    ASSERT_FALSE(starved.ok);
    bad_replies.push_back(rejected.error);
    deadline_replies.push_back(starved.error);
  }
  EXPECT_EQ(bad_replies[0].code, serve::ErrorCode::BadRequest);
  EXPECT_EQ(bad_replies[1].code, bad_replies[0].code);
  EXPECT_EQ(bad_replies[1].detail, bad_replies[0].detail);
  EXPECT_EQ(deadline_replies[0].code, serve::ErrorCode::DeadlineExceeded);
  EXPECT_EQ(deadline_replies[1].code, deadline_replies[0].code);
  EXPECT_EQ(deadline_replies[1].detail, deadline_replies[0].detail);
}

TEST_F(ServeTest, WorkerModeCoalescingAndCacheStillWork) {
  serve::Server server(worker_config(2));
  server.start();
  serve::Client client;
  client.connect_tcp("127.0.0.1", server.port());
  const serve::Request req = grid_request(260.0);

  const serve::Reply first = client.analyze(1, req);
  ASSERT_TRUE(first.ok);
  ASSERT_EQ(first.response.served_by, serve::Response::ServedBy::Computed);
  const serve::Reply second = client.analyze(2, req);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.response.served_by, serve::Response::ServedBy::Cache);
  EXPECT_EQ(second.response.result_bytes, first.response.result_bytes);
  server.shutdown();
}

}  // namespace
