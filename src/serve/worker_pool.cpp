#include "serve/worker_pool.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "govern/rlimit.hpp"
#include "robust/fault_injection.hpp"
#include "runtime/metrics.hpp"
#include "store/format.hpp"

namespace ind::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Respawn delay after a slot's first death; doubles per consecutive death
/// up to the cap and resets on a completed flight.
constexpr std::uint64_t kRespawnBackoffMs = 50;
constexpr std::uint64_t kRespawnBackoffCapMs = 5000;

void count(const char* name, std::int64_t n = 1) {
  runtime::MetricsRegistry::instance().add_count(name, n);
}

/// "<directory of this executable>/ind_worker" — ind_served and ind_worker
/// install side by side, so the default needs no configuration.
std::string default_worker_bin() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "ind_worker";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "ind_worker";
  return path.substr(0, slash + 1) + "ind_worker";
}

/// Closes every descriptor above the worker's job pipe (fd 3) in the child
/// between fork and exec. Only async-signal-safe calls are allowed here —
/// the parent is multithreaded, so the child may hold arbitrary lock states.
void close_high_fds() {
#ifdef SYS_close_range
  if (::syscall(SYS_close_range, 4u, ~0u, 0u) == 0) return;
#endif
  for (int fd = 4; fd < 1024; ++fd) ::close(fd);
}

}  // namespace

robust::CrashKind classify_worker_exit(int wstatus) {
  if (WIFSIGNALED(wstatus)) {
    const int sig = WTERMSIG(wstatus);
    if (sig == SIGXCPU) return robust::CrashKind::RlimitCpu;
    if (sig == SIGKILL) return robust::CrashKind::OomKill;
    return robust::CrashKind::Signal;
  }
  if (WIFEXITED(wstatus) &&
      WEXITSTATUS(wstatus) == govern::kWorkerOomExitCode)
    return robust::CrashKind::RlimitMem;
  return robust::CrashKind::ExitError;
}

WorkerPool::WorkerPool(Config config) : config_(std::move(config)) {
  if (config_.worker_bin.empty()) config_.worker_bin = default_worker_bin();
  if (config_.poison_threshold < 1) config_.poison_threshold = 1;
}

WorkerPool::~WorkerPool() { stop(); }

bool WorkerPool::spawn_locked(Worker& w) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    return false;

  // argv must be materialised before fork: only async-signal-safe work is
  // legal in the child of a multithreaded parent.
  const std::string max_frame = std::to_string(config_.max_frame_bytes);
  const char* argv[] = {config_.worker_bin.c_str(),
                        "--fd", "3",
                        "--max-frame-bytes", max_frame.c_str(),
                        nullptr};

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Child: job pipe on fd 3, everything else closed, then exec. When the
    // socketpair already landed on fd 3 (possible if stdio fds were closed
    // before the pool started), dup2 is a no-op that leaves SOCK_CLOEXEC
    // set and exec would close the job pipe — clear the flag instead.
    if (sv[1] == 3) {
      const int flags = ::fcntl(3, F_GETFD);
      if (flags < 0 || ::fcntl(3, F_SETFD, flags & ~FD_CLOEXEC) < 0)
        ::_exit(126);
    } else if (::dup2(sv[1], 3) < 0) {
      ::_exit(126);
    }
    close_high_fds();
    ::execv(config_.worker_bin.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);  // exec failed (missing binary); classified ExitError
  }
  ::close(sv[1]);
  w.pid = pid;
  w.fd = sv[0];
  w.state = Worker::State::Idle;
  return true;
}

void WorkerPool::record_crash_locked(robust::CrashKind kind) {
  count("serve.worker.crashes");
  count((std::string("serve.worker.crashes.") + to_string(kind)).c_str());
  switch (kind) {
    case robust::CrashKind::OomKill:
      ++crashes_oom_;
      break;
    case robust::CrashKind::RlimitCpu:
    case robust::CrashKind::RlimitMem:
      ++crashes_rlimit_;
      break;
    default:
      // Signal plus the unclassified exits — the "it just died" bucket.
      ++crashes_signal_;
      break;
  }
}

void WorkerPool::mark_dead_locked(Worker& w, int wstatus) {
  record_crash_locked(classify_worker_exit(wstatus));
  if (w.fd >= 0) ::close(w.fd);
  w.fd = -1;
  w.pid = -1;
  w.state = Worker::State::Dead;
  w.backoff_ms = w.backoff_ms == 0
                     ? kRespawnBackoffMs
                     : std::min(w.backoff_ms * 2, kRespawnBackoffCapMs);
  w.respawn_at = Clock::now() + std::chrono::milliseconds(w.backoff_ms);
  monitor_cv_.notify_all();
}

void WorkerPool::start() {
  std::unique_lock lock(mutex_);
  if (running_ || config_.workers == 0) return;
  slots_.resize(config_.workers);
  std::size_t spawned = 0;
  for (Worker& w : slots_) {
    if (spawn_locked(w)) {
      ++spawned;
    } else {
      w.state = Worker::State::Dead;
      w.backoff_ms = kRespawnBackoffMs;
      w.respawn_at = Clock::now() + std::chrono::milliseconds(w.backoff_ms);
    }
  }
  if (spawned == 0) {
    for (Worker& w : slots_) w.state = Worker::State::Stopped;
    slots_.clear();
    throw std::runtime_error("serve: could not start any worker process (" +
                             config_.worker_bin + ")");
  }
  running_ = true;
  stopping_ = false;
  monitor_ = std::thread([this] { monitor_loop(); });
}

void WorkerPool::stop() {
  {
    std::unique_lock lock(mutex_);
    if (!running_) return;
    stopping_ = true;
    // Busy workers are mid-analysis; their lane threads own the reap. Kill
    // so those threads unblock promptly (shutdown already shed the waiters).
    for (Worker& w : slots_)
      if (w.state == Worker::State::Busy && w.pid > 0)
        ::kill(w.pid, SIGKILL);
    monitor_cv_.notify_all();
    idle_cv_.notify_all();
  }
  if (monitor_.joinable()) monitor_.join();
  std::unique_lock lock(mutex_);
  idle_cv_.wait_for(lock, std::chrono::seconds(10), [this] {
    for (const Worker& w : slots_)
      if (w.state == Worker::State::Busy) return false;
    return true;
  });
  for (Worker& w : slots_) {
    if (w.state == Worker::State::Busy) continue;  // lane thread wedged; leak
    if (w.fd >= 0) ::close(w.fd);
    w.fd = -1;
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      w.pid = -1;
    }
    w.state = Worker::State::Stopped;
  }
  running_ = false;
}

int WorkerPool::acquire_idle_slot() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (stopping_) return -1;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].state == Worker::State::Idle) {
        slots_[i].state = Worker::State::Busy;
        return static_cast<int>(i);
      }
    }
    idle_cv_.wait(lock);
  }
}

Outcome WorkerPool::run(const store::Digest& fp, const Request& req) {
  const std::string key = fp.hex();
  Outcome out;
  {
    std::unique_lock lock(mutex_);
    if (quarantine_.count(key)) {
      out.code = ErrorCode::PoisonedRequest;
      out.detail = "request fingerprint " + key + " is quarantined";
      return out;
    }
  }

  // One dispatched job frame, reused across the retry.
  store::ByteWriter w;
  const std::uint64_t job_id = [this] {
    std::unique_lock lock(mutex_);
    return next_job_id_++;
  }();
  w.u64(job_id);
  put_request(w, req);
  Frame job;
  job.type = FrameType::AnalyzeRequest;
  job.payload = w.take();

  // `attempts` counts dispatches that reached a live worker; a write that
  // fails because the worker was already dead consumes neither the retry nor
  // the fingerprint's kill budget. `spins` bounds the worst case where every
  // acquired worker turns out dead at dispatch time. `crash` is the worst
  // death observed so far.
  int attempts = 0;
  int spins = 0;
  robust::CrashKind crash = robust::CrashKind::None;
  while (attempts < 2 && spins < 64) {
    ++spins;
    const int slot = acquire_idle_slot();
    if (slot < 0) {
      out.code = ErrorCode::ShuttingDown;
      out.detail = "worker pool stopping";
      return out;
    }
    pid_t pid;
    int fd;
    {
      std::unique_lock lock(mutex_);
      pid = slots_[static_cast<std::size_t>(slot)].pid;
      fd = slots_[static_cast<std::size_t>(slot)].fd;
    }

    bool delivered = false;
    try {
      delivered = write_frame(fd, job);
    } catch (const ProtocolError&) {
      // Hard write error (e.g. ENOBUFS) on the job pipe: treat the worker as
      // dead-on-arrival — it never saw the flight, so this consumes neither
      // the retry nor the fingerprint's kill budget, and the exception must
      // not escape into the executor thread.
      delivered = false;
    }
    if (delivered) {
      ++attempts;
      count("serve.worker.dispatches");
      // Deterministic chaos hook: the Nth dispatch kills its worker, so
      // "worker_exec@0" crashes exactly the first attempt and the sibling
      // retry (index 1) runs clean.
      if (robust::fault::fire(robust::fault::Site::WorkerExec) && pid > 0)
        ::kill(pid, SIGSEGV);
    }

    std::optional<Frame> reply;
    if (delivered) {
      try {
        reply = read_frame(fd, config_.max_frame_bytes);
      } catch (const ProtocolError&) {
        // Torn frame (the worker died mid-reply) — or an oversized one
        // (FrameTooLarge), where the worker is still *alive* and blocked
        // writing the rest. Either way fall through to the death path, which
        // SIGKILLs before reaping so a live worker can never wedge the lane.
        reply.reset();
      }
    }

    if (reply) {
      std::unique_lock lock(mutex_);
      Worker& slot_ref = slots_[static_cast<std::size_t>(slot)];
      slot_ref.state = Worker::State::Idle;
      slot_ref.backoff_ms = 0;  // a completed flight clears the crash streak
      idle_cv_.notify_all();

      if (reply->type == FrameType::AnalyzeResponse) {
        kill_counts_.erase(key);  // success un-poisons a transient streak
        lock.unlock();
        Response resp;
        try {
          const std::uint64_t echoed =
              decode_response_payload(reply->payload, resp);
          if (echoed != job_id)
            throw std::runtime_error("worker echoed wrong job id");
        } catch (const std::exception& e) {
          out.code = ErrorCode::Internal;
          out.detail = std::string("worker reply undecodable: ") + e.what();
          return out;
        }
        out.build_seconds = resp.build_seconds;
        out.solve_seconds = resp.solve_seconds;
        out.result_bytes = std::move(resp.result_bytes);
        return out;
      }
      lock.unlock();
      // Structured Error frame: the worker is alive and the failure is
      // deterministic (bad request, budget trip, ...) — no retry.
      try {
        const ErrorInfo info = decode_error(reply->payload);
        out.code = info.code;
        out.detail = info.detail;
      } catch (const std::exception& e) {
        out.code = ErrorCode::Internal;
        out.detail = std::string("worker error undecodable: ") + e.what();
      }
      return out;
    }

    // The worker died (EOF / torn frame / dead-on-arrival write) — or is
    // alive but unusable (it sent a reply above max_frame_bytes and is
    // blocked writing the remainder). SIGKILL unconditionally and close our
    // pipe end *before* the blocking waitpid: both are harmless no-ops on an
    // already-dead child, and on a live one they guarantee the reap below
    // cannot deadlock against a worker wedged in write(). Reap and classify
    // outside the pool lock — the monitor skips Busy slots, so this thread
    // owns the pid.
    if (pid > 0) ::kill(pid, SIGKILL);
    if (fd >= 0) ::close(fd);
    int wstatus = 0;
    if (pid > 0) ::waitpid(pid, &wstatus, 0);
    const robust::CrashKind kind = classify_worker_exit(wstatus);
    if (static_cast<int>(kind) > static_cast<int>(crash)) crash = kind;

    std::unique_lock lock(mutex_);
    Worker& slot_ref = slots_[static_cast<std::size_t>(slot)];
    slot_ref.fd = -1;  // already closed above
    if (stopping_) {
      // Shutdown-initiated kill (stop() SIGKILLs busy workers so lanes
      // unblock): not a crash. Keep it out of the CrashKind tallies —
      // SIGKILL classifies as OomKill, and polluting crashes_oom on every
      // drain would mask real OOM kills from operators.
      count("serve.worker.shutdown_kills");
      slot_ref.pid = -1;
      slot_ref.state = Worker::State::Stopped;
      idle_cv_.notify_all();
      out.code = ErrorCode::ShuttingDown;
      out.detail = "worker pool stopping";
      return out;
    }
    slot_ref.pid = -1;  // already reaped above; mark_dead only cleans up fd
    mark_dead_locked(slot_ref, wstatus);

    if (delivered) {
      const int kills = ++kill_counts_[key];
      if (kills >= config_.poison_threshold) {
        kill_counts_.erase(key);
        quarantine_.insert(key);
        count("serve.worker.quarantined");
        out.code = ErrorCode::PoisonedRequest;
        out.detail = "request fingerprint " + key + " killed " +
                     std::to_string(kills) + " workers (" + to_string(kind) +
                     "); quarantined";
        return out;
      }
      if (attempts < 2) {
        ++crash_retries_;
        count("serve.worker.retries");
      }
    }
  }

  out.code = ErrorCode::WorkerCrashed;
  out.detail = std::string("worker died (") + to_string(crash) +
               ") and the sibling retry also failed";
  return out;
}

bool WorkerPool::poisoned(const store::Digest& fp) const {
  std::unique_lock lock(mutex_);
  return quarantine_.count(fp.hex()) != 0;
}

WorkerPool::PoolHealth WorkerPool::health() const {
  std::unique_lock lock(mutex_);
  PoolHealth h;
  h.workers = config_.workers;
  for (const Worker& w : slots_) {
    if (w.state == Worker::State::Idle || w.state == Worker::State::Busy) {
      ++h.alive;
      if (w.pid > 0) h.pids.push_back(static_cast<std::uint64_t>(w.pid));
    } else if (w.state == Worker::State::Dead) {
      ++h.respawning;
    }
  }
  h.crashes_signal = crashes_signal_;
  h.crashes_oom = crashes_oom_;
  h.crashes_rlimit = crashes_rlimit_;
  h.crash_retries = crash_retries_;
  h.respawns = respawns_;
  h.quarantined = quarantine_.size();
  return h;
}

void WorkerPool::monitor_loop() {
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    // Reap idle deaths (chaos kills between flights). Busy slots belong to
    // their lane threads — never waitpid those here.
    for (Worker& w : slots_) {
      if (w.state != Worker::State::Idle || w.pid <= 0) continue;
      int wstatus = 0;
      const pid_t r = ::waitpid(w.pid, &wstatus, WNOHANG);
      if (r == w.pid) {
        w.pid = -1;
        mark_dead_locked(w, wstatus);
      }
    }
    // Respawn dead slots whose backoff elapsed.
    const auto now = Clock::now();
    for (Worker& w : slots_) {
      if (w.state != Worker::State::Dead || now < w.respawn_at) continue;
      if (spawn_locked(w)) {
        ++respawns_;
        count("serve.worker.respawns");
        idle_cv_.notify_all();
      } else {
        w.backoff_ms = std::min(w.backoff_ms * 2, kRespawnBackoffCapMs);
        w.respawn_at = now + std::chrono::milliseconds(w.backoff_ms);
      }
    }
    monitor_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

}  // namespace ind::serve
