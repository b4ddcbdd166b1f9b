#include "govern/rlimit.hpp"

#include <sys/resource.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <new>

namespace ind::govern {
namespace {

/// Seconds of CPU (user + system) this process has consumed, rounded up —
/// RLIMIT_CPU is cumulative, so each request's allowance sits on top.
std::uint64_t cpu_seconds_used() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  const std::uint64_t micros =
      static_cast<std::uint64_t>(usage.ru_utime.tv_sec) * 1000000ull +
      static_cast<std::uint64_t>(usage.ru_utime.tv_usec) +
      static_cast<std::uint64_t>(usage.ru_stime.tv_sec) * 1000000ull +
      static_cast<std::uint64_t>(usage.ru_stime.tv_usec);
  return (micros + 999999ull) / 1000000ull;
}

/// Sets the soft value of `resource`, clamped to the hard limit. A soft
/// value of RLIM_INFINITY restores the hard ceiling.
bool set_soft(int resource, rlim_t soft) {
  rlimit cur{};
  if (getrlimit(resource, &cur) != 0) return false;
  if (cur.rlim_max != RLIM_INFINITY) soft = std::min(soft, cur.rlim_max);
  if (soft == cur.rlim_cur) return true;
  rlimit next{soft, cur.rlim_max};
  return setrlimit(resource, &next) == 0;
}

}  // namespace

WorkerRlimits worker_rlimits(const RunBudget& effective,
                             std::uint64_t as_slack_bytes,
                             std::uint64_t cpu_slack_seconds) {
  WorkerRlimits limits;
  if (effective.mem_bytes != 0)
    limits.as_bytes = effective.mem_bytes + as_slack_bytes;
  if (effective.deadline_ms != 0)
    limits.cpu_seconds =
        (effective.deadline_ms + 999ull) / 1000ull + cpu_slack_seconds;
  return limits;
}

bool apply_worker_rlimits(const WorkerRlimits& limits) {
  bool ok = true;
  if (limits.as_bytes != 0)
    ok = set_soft(RLIMIT_AS, static_cast<rlim_t>(limits.as_bytes)) && ok;
  if (limits.cpu_seconds != 0)
    ok = set_soft(RLIMIT_CPU, static_cast<rlim_t>(cpu_seconds_used() +
                                                  limits.cpu_seconds)) &&
         ok;
  return ok;
}

void relax_worker_rlimits() {
  set_soft(RLIMIT_AS, RLIM_INFINITY);
  set_soft(RLIMIT_CPU, RLIM_INFINITY);
}

void exit_on_allocation_failure() {
  std::set_new_handler([] { ::_exit(kWorkerOomExitCode); });
}

}  // namespace ind::govern
