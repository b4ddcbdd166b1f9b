#include "serve/resilient_client.hpp"

#include <algorithm>
#include <thread>

#include "runtime/metrics.hpp"

namespace ind::serve {

namespace {

using Ms = std::chrono::milliseconds;

/// splitmix64: tiny, stateless, excellent diffusion — the standard choice
/// for turning a structured seed into uniform bits.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Reply connection_lost_reply(std::uint64_t request_id,
                            const std::string& detail) {
  Reply r;
  r.ok = false;
  r.request_id = request_id;
  r.error.request_id = request_id;
  r.error.code = ErrorCode::ConnectionLost;
  r.error.detail = detail;
  return r;
}

/// ProtocolErrors that mean "the peer/stream died" rather than "the peer
/// speaks a different protocol". The former are retryable on a fresh
/// connection; the latter can only terminally fail.
bool connection_level(const ProtocolError& e) {
  switch (e.code()) {
    case ErrorCode::ConnectionLost:
    case ErrorCode::MalformedFrame:  // torn mid-frame: peer died sending
    case ErrorCode::Internal:        // hard I/O error on the socket
      return true;
    default:
      return false;
  }
}

}  // namespace

std::uint64_t ResilientClient::backoff_ms(const store::Digest& fingerprint,
                                          int attempt,
                                          const RetryPolicy& policy) {
  if (attempt < 1) attempt = 1;
  std::uint64_t raw = policy.base_backoff_ms;
  // base << (attempt-1), saturating at the cap (shift without overflow).
  for (int k = 1; k < attempt && raw < policy.max_backoff_ms; ++k) raw <<= 1;
  raw = std::min(raw, policy.max_backoff_ms);
  if (raw == 0) return 0;
  // Deterministic jitter in [raw/2, raw]: seeded purely by the request
  // fingerprint and the attempt number, never a clock or global RNG.
  const std::uint64_t seed =
      fingerprint.hi ^ (fingerprint.lo * 0x9E3779B97F4A7C15ull) ^
      (static_cast<std::uint64_t>(attempt) * 0xD1B54A32D192ED03ull);
  const std::uint64_t span = raw / 2 + 1;
  return raw / 2 + splitmix64(seed) % span;
}

bool ResilientClient::retryable(ErrorCode code) {
  switch (code) {
    case ErrorCode::ConnectionLost:
    case ErrorCode::QueueFull:
    case ErrorCode::ShuttingDown:
      return true;
    default:
      return false;
  }
}

ResilientClient::ResilientClient(Endpoint endpoint, RetryPolicy policy)
    : endpoint_(std::move(endpoint)),
      policy_(policy),
      breaker_(policy.breaker_threshold, policy.breaker_open_ms) {}

void ResilientClient::connect(Client& client) {
  if (!endpoint_.uds_path.empty())
    client.connect_uds(endpoint_.uds_path);
  else
    client.connect_tcp(endpoint_.host, endpoint_.tcp_port);
  client.set_recv_timeout_ms(policy_.recv_timeout_ms);
}

HealthStatus ResilientClient::health() {
  if (!client_.connected()) {
    try {
      connect(client_);
    } catch (const ProtocolError&) {
      throw;
    } catch (const std::exception& e) {
      throw ProtocolError(ErrorCode::ConnectionLost, e.what());
    }
  }
  return client_.health();
}

CallOutcome ResilientClient::analyze(std::uint64_t request_id,
                                     const Request& req) {
  CallOutcome out;
  const auto started = Clock::now();
  const store::Digest fp = request_fingerprint(req);
  const TimePoint deadline = policy_.deadline_ms == 0
                                 ? TimePoint::max()
                                 : started + Ms(policy_.deadline_ms);
  ErrorCode last_code = ErrorCode::ConnectionLost;
  std::string last_detail = "no attempt made";
  const auto finish = [&](Reply reply) {
    out.reply = std::move(reply);
    out.ok = out.reply.ok;
    out.elapsed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - started)
            .count();
    return out;
  };

  const int max_attempts = std::max(policy_.max_attempts, 1);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      const Ms wait(backoff_ms(fp, attempt - 1, policy_));
      if (Clock::now() + wait >= deadline) break;  // no budget for a retry
      std::this_thread::sleep_for(wait);
      ++total_retries_;
      runtime::MetricsRegistry::instance().add_count("loadgen.retries", 1);
    }

    // Circuit breaker: while open, wait the window out (bounded by the
    // deadline) instead of burning attempts against a dead endpoint.
    TimePoint now = Clock::now();
    if (!breaker_.allow(now)) {
      const auto remaining = breaker_.open_remaining(now);
      if (now + remaining >= deadline) break;
      std::this_thread::sleep_for(remaining + Ms(1));
      if (!breaker_.allow(Clock::now())) {
        last_code = ErrorCode::ConnectionLost;
        last_detail = "circuit breaker open";
        continue;
      }
    }

    if (!client_.connected()) {
      try {
        connect(client_);
        if (connected_once_) {
          ++out.reconnects;
          ++total_reconnects_;
          runtime::MetricsRegistry::instance().add_count("loadgen.reconnects",
                                                         1);
        }
        connected_once_ = true;
      } catch (const ProtocolError& e) {
        if (!connection_level(e)) throw;  // wrong protocol: never retryable
        breaker_.on_failure(Clock::now());
        last_code = ErrorCode::ConnectionLost;
        last_detail = e.what();
        continue;
      } catch (const std::exception& e) {
        breaker_.on_failure(Clock::now());
        last_code = ErrorCode::ConnectionLost;
        last_detail = e.what();
        continue;
      }
    }

    ++out.attempts;
    bool sent = false;
    try {
      sent = client_.send_request(request_id, req);
    } catch (const ProtocolError& e) {
      if (!connection_level(e)) throw;
      sent = false;
    }
    if (!sent) {
      client_.close();
      breaker_.on_failure(Clock::now());
      last_code = ErrorCode::ConnectionLost;
      last_detail = "send failed, peer gone";
      continue;
    }

    Reply reply;
    try {
      reply = client_.read_reply();  // bounded by SO_RCVTIMEO
    } catch (const ProtocolError& e) {
      if (!connection_level(e)) throw;
      reply = connection_lost_reply(request_id, e.what());
    }

    if (reply.ok) {
      breaker_.on_success();
      return finish(std::move(reply));
    }
    if (reply.error.code == ErrorCode::ConnectionLost) {
      client_.close();
      breaker_.on_failure(Clock::now());
      last_code = ErrorCode::ConnectionLost;
      last_detail = reply.error.detail;
      continue;
    }
    // The server answered: it is alive regardless of what it said.
    breaker_.on_success();
    if (!retryable(reply.error.code)) return finish(std::move(reply));
    last_code = reply.error.code;
    last_detail = reply.error.detail;
  }

  // Retries exhausted or deadline spent: terminal structured error carrying
  // the last failure observed.
  Reply reply;
  reply.ok = false;
  reply.request_id = request_id;
  reply.busy = last_code == ErrorCode::QueueFull ||
               last_code == ErrorCode::ShuttingDown;
  reply.error.request_id = request_id;
  reply.error.code = last_code;
  reply.error.detail = last_detail + " (retries exhausted after " +
                       std::to_string(out.attempts) + " attempts)";
  return finish(std::move(reply));
}

}  // namespace ind::serve
