// Fault-tolerant wrapper around serve::Client: reconnect-on-EOF, deadline-
// aware retries with capped exponential backoff and *deterministic* jitter,
// a retryability classification over the ErrorCode taxonomy, and a
// per-endpoint circuit breaker.
//
// Determinism: the jitter for attempt k of a request is derived purely from
// the request's 128-bit fingerprint and k (splitmix64), so a retry schedule
// is bitwise-reproducible across runs and processes — chaos failures replay
// exactly, and two clients retrying the same request spread out differently
// from two retries of one client. No global RNG, no wall-clock seeds.
//
// Retryability over ErrorCode:
//   retryable:  ConnectionLost (EOF/torn frame/reset/recv timeout),
//               QueueFull (load shed), ShuttingDown (rolling restart)
//   terminal:   BadRequest, DeadlineExceeded, BadMagic, VersionMismatch,
//               MalformedFrame, FrameTooLarge, Internal
// Retrying is always safe — the server dedups by request fingerprint and
// every kernel is bitwise-deterministic, so a duplicate delivery can only
// produce the identical RESULT block (from cache/coalescing), never a
// different answer.
//
// Circuit breaker: `breaker_threshold` consecutive *connection-level*
// failures (connect refused, ConnectionLost) open the circuit for
// `breaker_open_ms`; while open, attempts fail fast without touching the
// socket. After the window one half-open probe is allowed — success closes
// the circuit, failure re-opens it. Busy replies do NOT trip the breaker: a
// server that answers Busy is alive and shedding, exactly the peer you keep
// backing off against rather than abandoning. The breaker consumes explicit
// time points so its state machine is unit-testable without sleeping.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "serve/client.hpp"
#include "serve/codec.hpp"
#include "store/hash.hpp"

namespace ind::serve {

struct Endpoint {
  std::string host = "127.0.0.1";
  int tcp_port = 0;
  std::string uds_path;  ///< when non-empty, UDS wins over TCP
};

struct RetryPolicy {
  int max_attempts = 4;                ///< total tries, first included
  std::uint64_t base_backoff_ms = 10;  ///< attempt k waits ~base * 2^(k-1)
  std::uint64_t max_backoff_ms = 2000; ///< cap on a single backoff
  std::uint64_t deadline_ms = 30'000;  ///< whole-call budget; 0 = unbounded
  std::uint64_t recv_timeout_ms = 10'000;  ///< SO_RCVTIMEO per read; 0 = off
  int breaker_threshold = 5;           ///< consecutive conn failures to open
  std::uint64_t breaker_open_ms = 1000;  ///< open window before half-open
};

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  enum class State { Closed, Open, HalfOpen };

  CircuitBreaker(int threshold, std::uint64_t open_ms)
      : threshold_(threshold < 1 ? 1 : threshold), open_ms_(open_ms) {}

  /// True when an attempt may proceed. In the open state this starts
  /// returning true again once `open_ms` has elapsed (the half-open probe);
  /// only one probe is handed out per window — further calls before the
  /// probe's verdict report false.
  bool allow(TimePoint now) {
    switch (state_) {
      case State::Closed:
        return true;
      case State::Open:
        if (now - opened_at_ >= std::chrono::milliseconds(open_ms_)) {
          state_ = State::HalfOpen;
          return true;  // the probe
        }
        return false;
      case State::HalfOpen:
        return false;  // probe outstanding
    }
    return true;
  }

  void on_success() {
    state_ = State::Closed;
    failures_ = 0;
  }

  void on_failure(TimePoint now) {
    if (state_ == State::HalfOpen) {
      state_ = State::Open;  // probe failed: re-open a full window
      opened_at_ = now;
      return;
    }
    if (++failures_ >= threshold_ && state_ == State::Closed) {
      state_ = State::Open;
      opened_at_ = now;
    }
  }

  State state() const { return state_; }

  /// Time left in the open window; zero when not open.
  std::chrono::milliseconds open_remaining(TimePoint now) const {
    if (state_ != State::Open) return std::chrono::milliseconds(0);
    const auto until = opened_at_ + std::chrono::milliseconds(open_ms_);
    if (now >= until) return std::chrono::milliseconds(0);
    return std::chrono::duration_cast<std::chrono::milliseconds>(until - now);
  }

 private:
  int threshold_;
  std::uint64_t open_ms_;
  int failures_ = 0;
  State state_ = State::Closed;
  TimePoint opened_at_{};
};

/// Terminal verdict of one resilient call.
struct CallOutcome {
  Reply reply;          ///< the winning reply (ok, or the terminal error)
  bool ok = false;      ///< reply.ok
  int attempts = 0;     ///< sends that reached the wire (first included)
  int reconnects = 0;   ///< fresh connections established after the first
  double elapsed_ms = 0.0;
};

class ResilientClient {
 public:
  ResilientClient(Endpoint endpoint, RetryPolicy policy);

  /// Deterministic backoff before attempt `attempt` (1-based count of
  /// *completed* attempts; the wait before the 2nd try passes attempt=1).
  /// Jitter is drawn from splitmix64(fingerprint, attempt) into
  /// [raw/2, raw] where raw = min(max_backoff, base << (attempt-1)).
  static std::uint64_t backoff_ms(const store::Digest& fingerprint,
                                  int attempt, const RetryPolicy& policy);

  /// Classification used by the retry loop (see header comment).
  static bool retryable(ErrorCode code);

  /// Sends `req` until it resolves: an ok Response, a terminal structured
  /// error, retries exhausted, or the deadline spent. Never throws for
  /// connection-level failures; ProtocolError still propagates for genuine
  /// protocol corruption (e.g. a version-mismatched server).
  CallOutcome analyze(std::uint64_t request_id, const Request& req);

  /// Health probe over the wrapped connection (connects if needed). Throws
  /// ProtocolError(ConnectionLost) when the endpoint is unreachable.
  HealthStatus health();

  const RetryPolicy& policy() const { return policy_; }
  const CircuitBreaker& breaker() const { return breaker_; }

  /// Process-lifetime totals across every analyze() on this client.
  std::uint64_t total_retries() const { return total_retries_; }
  std::uint64_t total_reconnects() const { return total_reconnects_; }

 private:
  using Clock = CircuitBreaker::Clock;
  using TimePoint = CircuitBreaker::TimePoint;

  void connect(Client& client);

  Endpoint endpoint_;
  RetryPolicy policy_;
  CircuitBreaker breaker_;
  Client client_;
  bool connected_once_ = false;
  std::uint64_t total_retries_ = 0;
  std::uint64_t total_reconnects_ = 0;
};

}  // namespace ind::serve
