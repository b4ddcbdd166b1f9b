// serve_mix — served analysis requests as an open loop: tenants are
// independent, so requests go out on a fixed schedule whatever the server
// does, and each is timed from its due time to the last byte of its reply.
//
// An in-process serve::Server at default config (in-process executor,
// memory response cache, artifact store off) listens on a Unix socket; the
// generator sends over two connections on a fixed schedule of 1 s frames,
// each 100 slots 10 ms apart (106 requests). Slot 0 of a frame is a burst
// of 6 fresh Fig-1 bodies due together (500 um grid, full PEEC(RLC), ~25 ms
// each to analyse), so they queue on the executor; the first is sent again
// 3 ms later on the other connection and coalesces with it. 14 more fresh
// bodies follow every 50 ms once the burst has drained, and the other 85
// slots repeat a warm set (cache hits). Twenty computations a second keep the
// executor about half busy. The rate is fixed here, never derived from
// measured capacity, and the schedule is the same for every seed: the seed
// changes the bodies and which warm body repeats, not the queueing pattern.
//
// Hits put op_p50_ms in the hit mode. The tail (10 samples beyond it) lands
// among the last requests of each burst, which wait for the five before
// them: one per frame, about 30 in a 30 s run, so the tail sits in the body
// of that class rather than on the rare scheduling stalls at the very top.
//
// Exercises serve's admit / queue / cache / codec / send path plus the
// analysis stack behind the misses; bypasses loop, fast and the store/ disk
// tier.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <sys/prctl.h>
#include <unistd.h>

#include "bench.hpp"
#include "geom/topologies.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using ind::geom::um;
using ind::serve::Response;

constexpr double kSlotMs = 10.0;     // offered load: 100 slots/s, fixed
constexpr int kFrameSlots = 100;     // one frame per second
constexpr int kBurst = 6;            // fresh bodies due at a frame's start
constexpr int kSpacedFrom = 20;      // then one fresh body in slot 20, 25,
constexpr int kSpacedEvery = 5;      // ..., 85
constexpr int kSpaced = 14;
constexpr double kDupDelayMs = 3.0;  // the burst's first body, sent again
constexpr int kWarmSet = 8;
// Set-up is repeated before and after the window and reported as the
// median: repeats spread over the whole run see the box's slow and fast
// periods alike, where back-to-back repeats all land in one of them.
constexpr int kSetupBefore = 3;
constexpr int kSetupAfter = 4;
constexpr double kLatencyLimitMs = 250.0;
constexpr std::uint64_t kRecvTimeoutMs = 30'000;

/// One Fig-1 body: a signal line across a 500 um power grid, full PEEC(RLC).
/// Seeded values: driver strength, sink load and signal width.
ind::serve::Request make_body(Rng& rng) {
  ind::serve::Request req;
  req.layout = ind::geom::Layout(ind::geom::default_tech());
  ind::geom::DriverReceiverGridSpec spec;
  spec.grid.extent_x = um(500);
  spec.grid.extent_y = um(500);
  spec.grid.pitch = um(125);
  spec.signal_length = um(400);
  spec.signal_width = um(rng.uniform(1.5, 3.0));
  spec.driver_res = rng.uniform(15.0, 30.0);
  spec.sink_cap = rng.uniform(20e-15, 40e-15);
  const auto res = ind::geom::add_driver_receiver_grid(req.layout, spec);
  auto& o = req.options;
  o.flow = ind::core::Flow::PeecRlcFull;
  o.signal_net = res.signal_net;
  o.peec.max_segment_length = um(125);
  o.transient.t_stop = 1.2e-9;
  o.transient.dt = 2e-12;
  return req;
}

struct Planned {
  double due_ms = 0.0;  ///< since window start
  int body = 0;         ///< index into bodies
  int conn = 0;
  bool traced = false;  ///< second half of a traced run
};

struct Outcome {
  Clock::time_point sent{}, done{};
  bool replied = false;
  ind::serve::Reply reply;
};

/// A running server with two connected tenants.
struct Rig {
  std::unique_ptr<ind::serve::Server> server;
  ind::serve::Client conn[2];

  void stop() {
    for (auto& c : conn) c.close();
    if (server) server->shutdown();
    server.reset();
  }
};

void start_rig(Rig& rig, const std::string& sock) {
  ::unlink(sock.c_str());
  ind::serve::ServerConfig cfg;  // defaults: in-process, memory cache on
  cfg.uds_path = sock;
  rig.server = std::make_unique<ind::serve::Server>(cfg);
  rig.server->start();
  for (auto& c : rig.conn) {
    c.connect_uds(sock);
    c.set_recv_timeout_ms(kRecvTimeoutMs);
  }
}

/// Sends `plan` on schedule and collects every reply. The reader threads
/// are jthreads, so they are joined before return on every path.
void run_schedule(Rig& rig, const std::vector<ind::serve::Request>& bodies,
                  const std::vector<Planned>& plan,
                  std::vector<Outcome>& out, Clock::time_point start) {
  out.assign(plan.size(), Outcome{});
  std::size_t expected[2] = {0, 0};
  for (const Planned& p : plan) ++expected[p.conn];
  auto reader = [&](int c) {
    for (std::size_t k = 0; k < expected[c]; ++k) {
      ind::serve::Reply rep = rig.conn[c].read_reply();
      const auto now = Clock::now();
      if (rep.error.code == ind::serve::ErrorCode::ConnectionLost &&
          rep.request_id == 0)
        return;  // the rest of this connection's requests stay unreplied
      if (rep.request_id >= out.size()) continue;
      Outcome& o = out[rep.request_id];
      o.done = now;
      o.reply = std::move(rep);
      o.replied = true;
    }
  };
  const std::jthread readers[2] = {std::jthread(reader, 0),
                                   std::jthread(reader, 1)};
  // Send on time: sleep to just before the due time with no timer slack,
  // then spin the rest (a few per cent of one core at this rate), so the
  // generator's own wake-up latency stays out of the measured latency.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     plan[i].due_ms));
    std::this_thread::sleep_until(due - std::chrono::microseconds(300));
    while (Clock::now() < due) {
    }
    out[i].sent = Clock::now();
    if (!rig.conn[plan[i].conn].send_request(
            i, bodies[static_cast<std::size_t>(plan[i].body)]))
      break;  // server gone: the readers see the connection die
  }
}

}  // namespace

Result run_serve_mix(const Args& args) {
  Result r;
  Rng rng(sub_seed(args.seed, 0));
  const std::string sock =
      args.run_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

  // Bodies: the warm set, then one fresh body per planned miss.
  std::vector<ind::serve::Request> bodies;
  for (int k = 0; k < kWarmSet; ++k) bodies.push_back(make_body(rng));

  std::vector<Planned> plan;
  const auto plan_at = [&](double due_ms, int body, int conn) {
    plan.push_back(
        {due_ms, body, conn, args.trace && due_ms >= args.seconds * 1e3 / 2});
  };
  const auto fresh = [&] {
    bodies.push_back(make_body(rng));
    return static_cast<int>(bodies.size()) - 1;
  };
  for (int slot = 0; slot < args.seconds * kFrameSlots; ++slot) {
    const double due = slot * kSlotMs;
    const int s = slot % kFrameSlots;
    if (s == 0) {
      for (int b = 0; b < kBurst; ++b) plan_at(due, fresh(), b % 2);
      plan_at(due + kDupDelayMs, plan[plan.size() - kBurst].body, 1);
    } else if (s >= kSpacedFrom && (s - kSpacedFrom) % kSpacedEvery == 0 &&
               (s - kSpacedFrom) / kSpacedEvery < kSpaced) {
      plan_at(due, fresh(), slot % 2);
    } else {
      plan_at(due, rng.range(0, kWarmSet - 1), slot % 2);
    }
  }

  // Set-up: server start, handshakes, warm-set fill. The last rig set up
  // before the window stays up for it.
  Rig rig;
  std::vector<double> setup_s;
  std::vector<std::vector<Outcome>> warm_out;
  std::vector<Planned> warm_plan;
  for (int k = 0; k < kWarmSet; ++k) warm_plan.push_back({0.0, k, k % 2});
  const auto set_up = [&] {
    rig.stop();
    const auto t0 = Clock::now();
    start_rig(rig, sock);
    run_schedule(rig, bodies, warm_plan, warm_out.emplace_back(),
                 Clock::now());
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  };
  for (int rep = 0; rep < kSetupBefore; ++rep) set_up();

  std::vector<Outcome> out;
  const auto start = Clock::now();
  run_schedule(rig, bodies, plan, out, start);
  if (!args.trace)
    for (int rep = 0; rep < kSetupAfter; ++rep) set_up();
  rig.stop();
  ::unlink(sock.c_str());

  // Verification, after the window: every ok RESULT block must equal an
  // in-process core::analyze + encode_result of the same body.
  std::map<int, std::vector<std::uint8_t>> expected;
  std::vector<double> codec_us;
  auto reference = [&](int body) -> const std::vector<std::uint8_t>& {
    auto it = expected.find(body);
    if (it != expected.end()) return it->second;
    const auto& req = bodies[static_cast<std::size_t>(body)];
    const ind::core::AnalysisReport rep =
        ind::core::analyze(req.layout, req.options);
    const auto t0 = Clock::now();
    std::vector<std::uint8_t> bytes =
        ind::serve::encode_result(rep, req.include_waveforms);
    ind::core::AnalysisReport round;
    ind::serve::decode_result(bytes, round);
    codec_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    return expected.emplace(body, std::move(bytes)).first->second;
  };
  auto verify = [&](const Outcome& o, int body) {
    if (!o.replied) return std::string("no reply");
    if (o.reply.busy) return std::string("busy");
    if (!o.reply.ok)
      return std::string("error ") + ind::serve::to_string(o.reply.error.code) +
             ": " + o.reply.error.detail;
    if (o.reply.response.result_bytes != reference(body))
      return std::string("RESULT block differs from in-process analyze");
    return std::string();
  };
  for (const std::vector<Outcome>& fill : warm_out) {
    r.attempted += kWarmSet;
    for (int k = 0; k < kWarmSet; ++k)
      if (const std::string why = verify(fill[k], k); !why.empty()) {
        r.failed += 1;
        r.fail("warm body " + std::to_string(k) + ": " + why);
      }
  }

  std::vector<double> latency, hit, miss, wire, queue, execute, lag;
  double ok_in_limit = 0, n_cache = 0, n_coalesced = 0, n_busy = 0;
  auto last_done = start;
  Tracer tr;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    const Outcome& o = out[i];
    r.attempted += 1;
    if (o.sent != Clock::time_point{})
      lag.push_back(ms_between(start, o.sent) - p.due_ms);
    if (o.replied && o.reply.busy) ++n_busy;
    if (const std::string why = verify(o, p.body); !why.empty()) {
      r.failed += 1;
      r.fail("request " + std::to_string(i) + ": " + why);
      continue;
    }
    if (o.done > last_done) last_done = o.done;
    const double lat = ms_between(start, o.done) - p.due_ms;
    if (lat <= kLatencyLimitMs) ++ok_in_limit;
    latency.push_back(lat);
    if (!p.traced) continue;

    const Response& resp = o.reply.response;
    const double q = resp.queue_seconds * 1e3;
    const double x = (resp.build_seconds + resp.solve_seconds) * 1e3;
    const double due = tr.to_ms(start) + p.due_ms;
    const double end = tr.to_ms(o.done);
    const int id = tr.add("serve.request", due, end, -1, static_cast<int>(i));
    switch (resp.served_by) {
      case Response::ServedBy::Cache:
        ++n_cache;
        hit.push_back(lat);
        wire.push_back(lat);
        break;
      case Response::ServedBy::Coalesced:
        // Attached mid-computation: its stage times belong to the initiator.
        ++n_coalesced;
        break;
      case Response::ServedBy::Computed:
        // Server-reported durations, placed at the end of the request: the
        // protocol reports how long each stage took, not when it ran.
        miss.push_back(lat);
        queue.push_back(q);
        execute.push_back(x);
        wire.push_back(lat - q - x);
        tr.add("serve.queue", end - x - q, end - x, id, static_cast<int>(i));
        tr.add("serve.execute", end - x, end, id, static_cast<int>(i));
        break;
    }
  }

  if (!args.trace) {
    add_end_to_end(r, latency, ok_in_limit, ms_between(start, last_done) / 1e3,
                   setup_s);
  } else {
    const double n_traced = static_cast<double>(
        std::count_if(plan.begin(), plan.end(),
                      [](const Planned& p) { return p.traced; }));
    double lag_pct = 0.0;
    r.add("serve.hit_ms", median(hit), "ms");
    r.add("serve.wire_ms", median(wire), "ms");
    r.add("serve.codec_us", median(codec_us), "us");
    r.add("serve.miss_ms", median(miss), "ms");
    r.add("serve.queue_ms", median(queue), "ms");
    r.add("serve.execute_ms", median(execute), "ms");
    r.add("serve.hit_frac", n_cache / n_traced, "ratio");
    r.add("serve.coalesced_frac", n_coalesced / n_traced, "ratio");
    r.add("serve.busy_frac", n_busy / static_cast<double>(plan.size()),
          "ratio");
    r.add("serve.gen_lag_ms", tail_value(lag, &lag_pct), "ms");
    r.detail("gen_lag_percentile", json_num(lag_pct));
    // Spans are added from recorded timestamps after the window, so tracing
    // costs the requests nothing: the overhead is 0 by construction.
    finish_trace(args, tr, r, 0.0);
  }
  r.detail("offered_rate_per_s",
           json_num(static_cast<double>(plan.size()) / args.seconds));
  r.detail("latency_limit_ms", json_num(kLatencyLimitMs));
  r.detail("requests", std::to_string(plan.size()));
  r.detail("distinct_bodies", std::to_string(expected.size()));
  return r;
}

}  // namespace perfbench
