#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_spin_sink{0};

/// A fixed amount of register-only work (no memory traffic), so wall time
/// scales with the cores that actually run it.
void spin(std::uint64_t iters) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t k = 0; k < iters; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink.fetch_add(x, std::memory_order_relaxed);
}

double spin_wall_ms(unsigned threads, std::uint64_t iters) {
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned k = 0; k < threads; ++k) pool.emplace_back(spin, iters);
  for (std::thread& t : pool) t.join();
  return ms_between(t0, Clock::now());
}

}  // namespace

std::string probe_cores() {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned nproc = online > 0 ? static_cast<unsigned>(online) : 1;
  // Usable cores: nproc spinners do nproc times the work of one; on nproc
  // free cores they take as long as one does.
  constexpr std::uint64_t kIters = 60'000'000;
  const double t1 = spin_wall_ms(1, kIters);
  const double tn = spin_wall_ms(nproc, kIters);
  const double usable = tn > 0 ? nproc * t1 / tn : 0.0;
  return "\"nproc\":" + std::to_string(nproc) +
         ",\"usable_cores\":" + json_num(usable) +
         ",\"spin_probe_ms\":{\"1\":" + json_num(t1) + ",\"" +
         std::to_string(nproc) + "\":" + json_num(tn) + "}";
}

std::string pin_cpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return "null";
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list = "[";
  for (int c = 0, taken = 0; c < CPU_SETSIZE && taken < n; ++c)
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &pinned);
      list += (taken++ ? "," : "") + std::to_string(c);
    }
  if (sched_setaffinity(0, sizeof pinned, &pinned) != 0) return "null";
  return list + "]";
}

std::string provenance_json(const Args& args, const std::string& cores,
                            const std::string& cpus) {
  const char* env_threads = std::getenv("IND_THREADS");
  std::string out = "{" + cores;
  out += ",\"pinned_cpus\":" + cpus;
  out += ",\"IND_THREADS\":" + json_str(env_threads ? env_threads : "");
  out += ",\"pool_threads\":" +
         std::to_string(ind::runtime::global_pool().size());
  out += ",\"workload\":" + json_str(args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"run_seconds\":" + std::to_string(args.seconds);
  out += ",\"trace\":" + std::string(args.trace ? "true" : "false");
  out += ",\"build\":" + args.build_provenance;
  return out + "}";
}

}  // namespace perfbench
