#include "govern/budget.hpp"

#include <sys/resource.h>

#include <algorithm>

#include "govern/env.hpp"
#include "govern/memory.hpp"
#include "robust/fault_injection.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"

namespace ind::govern {
namespace {

/// Peak resident set size in bytes (getrusage's ru_maxrss is in KiB on
/// Linux). Read only at publish time, never on the hot path.
std::int64_t peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
}

/// One-time estimate of a checkpoint() call's cost, measured against dummy
/// atomics (not by re-entering checkpoint(), which would perturb the
/// counters it is estimating).
std::int64_t checkpoint_cost_ns() {
  static const std::int64_t per_call = [] {
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    constexpr int kIters = 16384;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      a.fetch_add(1, std::memory_order_relaxed);
      b.fetch_add(1, std::memory_order_relaxed);
      (void)a.load(std::memory_order_relaxed);
      (void)b.load(std::memory_order_relaxed);
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    return std::max<std::int64_t>(1, ns / kIters);
  }();
  return per_call;
}

/// Process totals over every checkpoint() call, inside a run or not.
/// govern.work_units_total is what the CI degradation sweep sizes
/// IND_WORK_BUDGET fractions against.
std::atomic<std::uint64_t> g_checkpoints{0};
std::atomic<std::uint64_t> g_work{0};

/// Publishes the process-wide govern.* gauges (checkpoint and work-unit
/// totals, peak tracked bytes, peak RSS, whether the env budget is armed,
/// overhead estimate) into the metrics registry.
void publish() {
  auto& reg = runtime::MetricsRegistry::instance();
  const auto set = [&reg](const char* name, std::int64_t v) {
    reg.counter(name).value.store(v, std::memory_order_relaxed);
  };
  const std::int64_t checkpoints =
      static_cast<std::int64_t>(g_checkpoints.load(std::memory_order_relaxed));
  set("govern.work_units_total",
      static_cast<std::int64_t>(g_work.load(std::memory_order_relaxed)));
  set("govern.checkpoints", checkpoints);
  set("govern.peak_tracked_bytes", peak_tracked_bytes());
  set("govern.peak_rss_bytes", peak_rss_bytes());
  set("govern.budget_armed", RunBudget::from_env().any() ? 1 : 0);
  set("govern.overhead_est_ns", checkpoints * checkpoint_cost_ns());
}

// Registered at static initialisation, so every BENCH_*.json of a binary
// that links the governor carries the govern.* totals.
[[maybe_unused]] const bool g_hook_registered = [] {
  runtime::MetricsRegistry::instance().add_snapshot_hook(publish);
  return true;
}();

}  // namespace

const char* to_string(BudgetKind kind) {
  switch (kind) {
    case BudgetKind::None: return "none";
    case BudgetKind::Deadline: return "deadline";
    case BudgetKind::Memory: return "memory";
    case BudgetKind::Work: return "work";
    case BudgetKind::External: return "external";
  }
  return "unknown";
}

const RunBudget& RunBudget::from_env() {
  static const RunBudget env = [] {
    RunBudget b;
    b.deadline_ms = env_ms("IND_DEADLINE_MS", 0).value;
    b.mem_bytes = env_u64("IND_MEM_BYTES", 0).value;
    b.work_units = env_u64("IND_WORK_BUDGET", 0).value;
    return b;
  }();
  return env;
}

void Run::begin_attempt() {
  // New fidelity rung: fresh work counter and cancel cause, but the
  // deadline armed by the first attempt stands — degrading does not buy
  // more wall-clock.
  work_.store(0, std::memory_order_relaxed);
  token_.reset();
  if (budget_.deadline_ms > 0 &&
      !deadline_armed_.load(std::memory_order_relaxed)) {
    deadline_at_ = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(budget_.deadline_ms);
    deadline_armed_.store(true, std::memory_order_release);
  }
  // An external cancel (service shutdown, client disconnect) is not a
  // budget trip the ladder can degrade past: it must survive the
  // rung-to-rung token reset — and the case where another cause won the
  // first-cause slot — so the next rung sees it at its first checkpoint
  // instead of running an orphaned computation to completion.
  if (external_.load(std::memory_order_relaxed))
    token_.cancel(static_cast<int>(BudgetKind::External));
}

void Run::cancel(BudgetKind kind) {
  if (kind == BudgetKind::External)
    external_.store(true, std::memory_order_relaxed);
  token_.cancel(static_cast<int>(kind));
}

RunScope::RunScope(Run& run) : previous_(runtime::thread_context()) {
  runtime::set_thread_context(&run);
}

RunScope::~RunScope() { runtime::set_thread_context(previous_); }

Run* current_run() { return static_cast<Run*>(runtime::thread_context()); }

runtime::CancelToken* cancel_token() {
  Run* run = current_run();
  return run != nullptr ? run->cancel_token() : nullptr;
}

bool checkpoint(std::uint64_t units) {
  g_checkpoints.fetch_add(1, std::memory_order_relaxed);
  g_work.fetch_add(units, std::memory_order_relaxed);
  const bool injected =
      robust::fault::fire(robust::fault::Site::BudgetCheck);
  Run* run = current_run();
  if (run == nullptr) return false;
  const std::uint64_t work =
      run->work_.fetch_add(units, std::memory_order_relaxed) + units;
  runtime::CancelToken& token = run->token_;
  if (injected) token.cancel(static_cast<int>(BudgetKind::Work));
  const RunBudget& b = run->budget_;
  if (b.work_units > 0 && work > b.work_units)
    token.cancel(static_cast<int>(BudgetKind::Work));
  if (b.mem_bytes > 0 &&
      tracked_bytes() > static_cast<std::int64_t>(b.mem_bytes))
    token.cancel(static_cast<int>(BudgetKind::Memory));
  if (run->deadline_armed_.load(std::memory_order_acquire) &&
      std::chrono::steady_clock::now() >= run->deadline_at_)
    token.cancel(static_cast<int>(BudgetKind::Deadline));
  return token.cancelled();
}

void throw_if_cancelled(const char* where) {
  const Run* run = current_run();
  if (run != nullptr && run->cancelled())
    throw CancelledError(run->cancel_kind(), where);
}

}  // namespace ind::govern
