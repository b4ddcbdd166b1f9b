// Fair admission scheduler: per-client bounded FIFOs drained round-robin.
//
// Every connection gets its own queue with a hard depth cap, and a global
// cap bounds the sum. The executor pops clients in strict round-robin order
// (clients join the rotation on their first admitted job and leave it when
// their queue drains), so a client flooding requests cannot starve a client
// sending one: with clients A and B queued [A1 A2 ... A9, B1], the pop order
// is A1 B1 A2 A3 ... — B waits behind exactly one of A's jobs, never nine.
//
// Admission never blocks: a full queue is an immediate Reject (the server
// turns it into a Busy frame — load shedding instead of unbounded queueing),
// and after shutdown() every push is rejected with Draining. pop() blocks
// until a job or shutdown-and-empty, which is the executor's exit signal.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

namespace ind::serve {

enum class Admit {
  Ok,
  ClientFull,  ///< this client's queue is at per-client capacity
  ServerFull,  ///< the global queue is at total capacity
  Draining,    ///< shutdown() was called; no new work is accepted
};

/// FIFO + round-robin scheduler over opaque job handles (the server stores
/// indices into its own in-flight table).
template <typename Job>
class FairScheduler {
 public:
  FairScheduler(std::size_t per_client_cap, std::size_t total_cap)
      : per_client_cap_(per_client_cap), total_cap_(total_cap) {}

  Admit push(std::uint64_t client, Job job) {
    std::unique_lock lock(mutex_);
    if (draining_) return Admit::Draining;
    if (total_ >= total_cap_) return Admit::ServerFull;
    auto [it, inserted] = queues_.try_emplace(client);
    if (it->second.size() >= per_client_cap_) return Admit::ClientFull;
    if (it->second.empty()) rotation_.push_back(client);
    it->second.push_back(std::move(job));
    ++total_;
    lock.unlock();
    ready_.notify_one();
    return Admit::Ok;
  }

  /// Blocks for the next job in round-robin order. Returns false when the
  /// scheduler is draining and empty (executor exit).
  bool pop(Job& out) {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [&] { return total_ > 0 || draining_; });
    if (total_ == 0) return false;
    if (cursor_ >= rotation_.size()) cursor_ = 0;
    const std::uint64_t client = rotation_[cursor_];
    auto it = queues_.find(client);
    out = std::move(it->second.front());
    it->second.pop_front();
    --total_;
    if (it->second.empty()) {
      queues_.erase(it);
      rotation_.erase(rotation_.begin() +
                      static_cast<std::ptrdiff_t>(cursor_));
      // cursor_ now points at the next client already; wrap handled above.
    } else {
      ++cursor_;
    }
    return true;
  }

  /// Stops admission. pop() keeps returning queued jobs until empty, then
  /// false — the "drain" phase of a graceful shutdown.
  void shutdown() {
    {
      std::lock_guard lock(mutex_);
      draining_ = true;
    }
    ready_.notify_all();
  }

  /// Drops every queued job (shutdown past the drain deadline: the server
  /// answers their waiters with ShuttingDown instead of running them).
  void drain_all() {
    std::lock_guard lock(mutex_);
    queues_.clear();
    rotation_.clear();
    cursor_ = 0;
    total_ = 0;
  }

  std::size_t depth() const {
    std::lock_guard lock(mutex_);
    return total_;
  }

 private:
  const std::size_t per_client_cap_;
  const std::size_t total_cap_;

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::map<std::uint64_t, std::deque<Job>> queues_;
  std::vector<std::uint64_t> rotation_;  ///< clients with non-empty queues
  std::size_t cursor_ = 0;               ///< round-robin position
  std::size_t total_ = 0;
  bool draining_ = false;
};

}  // namespace ind::serve
