// ind_perfbench — the repo benchmark binary.
//
//   ind_perfbench --workload clock_flows|loop_extract|serve_mix --seed N
//                 --seconds S --trace 0|1 [--run-dir DIR] [--provenance JSON]
//
// Prints the provenance block and the run details as "# " lines, then, as
// the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. perfbench/run.py builds this binary and calls it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

/// Every per-layer metric of every workload (BENCHMARK.json "per_layer").
/// A traced run reports all of them; a layer its workload bypasses reads 0.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"peec.build_ms", "ms"},
    {"sparsify.ms", "ms"},
    {"mor.prima_flow_ms", "ms"},
    {"circuit.transient_ms", "ms"},
    {"circuit.steps", "count"},
    {"circuit.refactors", "count"},
    {"la.sparse_fill_per_nnz", "ratio"},
    {"core.residual_ms", "ms"},
    {"loop.dense_assemble_ms", "ms"},
    {"loop.dense_solve_ms", "ms"},
    {"la.dense_lu_gflops", "GF/s"},
    {"fast.setup_ms", "ms"},
    {"fast.solve_ms", "ms"},
    {"fast.precond_fill_per_nnz", "ratio"},
    {"fast.gmres_iters_per_solve", "count"},
    {"loop.filaments", "count"},
    {"fast.cells", "count"},
    {"govern.peak_tracked_mb", "MB"},
    {"loop.residual_ms", "ms"},
    {"serve.hit_ms", "ms"},
    {"serve.wire_ms", "ms"},
    {"serve.codec_us", "us"},
    {"serve.miss_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.execute_ms", "ms"},
    {"serve.hit_frac", "ratio"},
    {"serve.coalesced_frac", "ratio"},
    {"serve.busy_frac", "ratio"},
    {"serve.gen_lag_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// Orders a traced run's metrics as kPerLayer and fills bypassed layers.
void complete_per_layer(perfbench::Result& r) {
  for (const perfbench::Metric& m : r.metrics)
    if (std::none_of(std::begin(kPerLayer), std::end(kPerLayer),
                     [&](const auto& e) { return m.name == e.first; }))
      throw std::logic_error("metric " + m.name + " is not in kPerLayer");
  std::vector<perfbench::Metric> out;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = std::find_if(
        r.metrics.begin(), r.metrics.end(),
        [&](const perfbench::Metric& m) { return m.name == name; });
    out.push_back(it != r.metrics.end() ? *it
                                        : perfbench::Metric{name, 0.0, unit});
  }
  r.metrics = std::move(out);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ind_perfbench: %s\nusage: ind_perfbench --workload "
               "clock_flows|loop_extract|serve_mix --seed N --seconds S "
               "--trace 0|1 [--run-dir DIR] [--provenance JSON]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*end) usage("--seed must be a non-negative integer");
    } else if (key == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(val, &end, 10));
      if (*end || a.seconds < 1 || a.seconds > 60)
        usage("--seconds must be an integer in [1, 60]");
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") && std::strcmp(val, "1"))
        usage("--trace must be 0 or 1");
      a.trace = val[0] == '1';
    } else if (key == "--run-dir") {
      a.run_dir = val;
    } else if (key == "--provenance") {
      a.build_provenance = val;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload != "clock_flows" && a.workload != "loop_extract" &&
      a.workload != "serve_mix")
    usage("--workload must be clock_flows, loop_extract or serve_mix");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  // Every workload runs on a one-worker pool: on a box with fewer usable
  // cores than vCPUs a wider pool adds scheduler noise, not speed. Set
  // before anything touches the process-wide pool.
  setenv("IND_THREADS", "1", 1);
  perfbench::Args args = parse(argc, argv);
  // Two CPUs for every workload, before any thread exists: about two cores
  // of the box are usable, and leaving the scheduler all of them made
  // served-hit latency (mostly thread wake-ups) swing by 2x between runs.
  const std::string cores = perfbench::probe_cores();
  const std::string cpus = perfbench::pin_cpus(2);
  args.provenance = perfbench::provenance_json(args, cores, cpus);
  std::printf("# provenance: %s\n", args.provenance.c_str());

  perfbench::Result r;
  std::fflush(stdout);
  try {
    if (args.workload == "clock_flows") {
      r = perfbench::run_clock_flows(args);
    } else if (args.workload == "loop_extract") {
      r = perfbench::run_loop_extract(args);
    } else {
      r = perfbench::run_serve_mix(args);
    }
    if (args.trace) complete_per_layer(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ind_perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }

  std::string errors = "[";
  for (std::size_t k = 0; k < r.errors.size(); ++k)
    errors += (k ? "," : "") + perfbench::json_str(r.errors[k]);
  r.detail("errors", errors + "]");
  std::string details = "{";
  for (std::size_t k = 0; k < r.details.size(); ++k)
    details += (k ? "," : "") + perfbench::json_str(r.details[k].first) +
               ":" + r.details[k].second;
  std::printf("# details: %s}\n", details.c_str());

  std::string line = "{\"correct\":";
  line += r.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(r.attempted);
  line += ",\"failed\":" + std::to_string(r.failed);
  line += ",\"metrics\":{";
  for (std::size_t k = 0; k < r.metrics.size(); ++k) {
    const perfbench::Metric& m = r.metrics[k];
    line += (k ? "," : "") + perfbench::json_str(m.name) +
            ":{\"value\":" + perfbench::json_num(m.value) +
            ",\"unit\":" + perfbench::json_str(m.unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}
