// Shared declarations of the repo benchmark binary (ind_perfbench).
//
// One process runs one workload for a fixed wall-clock window and reports
// a Result: the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run), plus attempted/failed op counts and a correctness verdict.
// Layer spans are recorded here, around calls into each module's public
// functions; nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string run_dir = ".";  ///< writable directory for sockets / traces
  std::string build_provenance = "{}";  ///< build half, from run.py
  std::string provenance;  ///< full block (main fills it before the run)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra key/value facts printed on the details line (sample counts, the
  /// percentile op_tail_ms reports, digests). Values are raw JSON.
  std::vector<std::pair<std::string, std::string>> details;
  std::vector<std::string> errors;  ///< first few correctness failures

  void fail(const std::string& why);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void detail(std::string key, std::string raw_json) {
    details.emplace_back(std::move(key), std::move(raw_json));
  }
};

// --- statistics -------------------------------------------------------------

/// Median (mean of the two middle samples for even counts); 0 when empty.
double median(std::vector<double> v);

/// The tail the benchmark reports: the highest-ranked sample that still has
/// at least ten samples beyond it, i.e. rank n-10 of n. `percentile` is set
/// to that rank as a percentage of n. Needs n >= 11; with fewer samples it
/// returns the maximum and sets percentile to 100.
double tail_value(std::vector<double> v, double* percentile);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// The five end-to-end metrics every workload reports, from per-op
/// latencies (ms) of ok ops, the timed window and the setup repeats.
void add_end_to_end(Result& r, const std::vector<double>& op_ms,
                    double ok_ops, double window_s,
                    const std::vector<double>& setup_s);

// --- deterministic inputs ---------------------------------------------------

/// SplitMix64: the workload seed expands into every generated value.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi);

 private:
  std::uint64_t s_;
};

/// Derives an independent stream for pool member / purpose `k`.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k);

// --- JSON helpers -----------------------------------------------------------

std::string json_str(std::string_view s);
std::string json_num(double v);

// --- provenance -------------------------------------------------------------

/// Usable cores from a spin probe (nproc threads against one), as JSON
/// members. Run it before pin_cpus(), which narrows what it would see.
std::string probe_cores();

/// Pins the process (this thread and every thread it starts later) to the
/// first `n` CPUs it may use; returns them as a JSON list ("null" if the
/// affinity calls fail).
std::string pin_cpus(int n);

/// The provenance block: the probe and pinning results, the pool size, the
/// pinned IND_THREADS, seed and run length, with the build half from run.py
/// nested under "build".
std::string provenance_json(const Args& args, const std::string& cores,
                            const std::string& cpus);

// --- traced runs ------------------------------------------------------------

class Tracer;

/// Tracing overhead of a closed-loop traced run: traced op p50 against the
/// untraced op p50 of the same run, in per cent (both go into the details).
double trace_overhead_pct(Result& r, double traced_p50_ms,
                          double untraced_p50_ms);

/// Ends a traced run: writes the per-layer table and Chrome trace-event JSON
/// into args.run_dir, echoes the table as "# " lines, and adds
/// trace.overhead_pct.
void finish_trace(const Args& args, const Tracer& tracer, Result& r,
                  double overhead_pct);

// --- workloads --------------------------------------------------------------

Result run_clock_flows(const Args& args);
Result run_loop_extract(const Args& args);
Result run_serve_mix(const Args& args);

}  // namespace perfbench
