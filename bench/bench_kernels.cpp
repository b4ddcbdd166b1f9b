// Kernel micro-benchmarks (google-benchmark): the inner loops whose cost
// drives every flow — mutual-inductance evaluation, partial-matrix assembly,
// dense/sparse factorisation, transient stepping.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>

#include "bench_common.hpp"
#include "circuit/transient.hpp"
#include "extract/partial_inductance.hpp"
#include "la/lu.hpp"
#include "la/sparse_lu.hpp"
#include "peec/model_builder.hpp"
#include "runtime/bench_report.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"

using namespace ind;
using geom::um;

namespace {

// Deterministic diagonally-dominant dense test matrix (well-conditioned).
la::Matrix dominant_matrix(std::size_t n, std::uint64_t seed) {
  la::Matrix a(n, n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      a(i, j) = static_cast<double>(s >> 11) /
                    static_cast<double>(1ULL << 53) -
                0.5;
      if (i == j) a(i, j) += static_cast<double>(n);
    }
  return a;
}

std::uint64_t fnv1a_bytes(const void* p, std::size_t nbytes,
                          std::uint64_t h = 1469598103934665603ULL) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Factor digest: packed LU bytes + permutation. Published via max_count so
// runs at different IND_THREADS can be diffed for bitwise equality straight
// from BENCH_kernels.json.
void publish_factor_digest(const char* name, const la::LU& f) {
  const std::size_t n = f.size();
  std::uint64_t h =
      fnv1a_bytes(f.packed().data(), n * n * sizeof(double));
  h = fnv1a_bytes(f.perm().data(), n * sizeof(std::size_t), h);
  runtime::MetricsRegistry::instance().max_count(
      name, static_cast<std::int64_t>(h & 0x7fffffffffffffffULL));
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<geom::Segment> bus_segments(int n) {
  std::vector<geom::Segment> segs;
  for (int i = 0; i < n; ++i) {
    geom::Segment s;
    s.a = {0, i * um(3)};
    s.b = {um(500), i * um(3)};
    s.width = um(1);
    s.thickness = um(1);
    segs.push_back(s);
  }
  return segs;
}

void BM_MutualInductanceKernel(benchmark::State& state) {
  const auto segs = bus_segments(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(extract::mutual_between(segs[0], segs[1]));
}
BENCHMARK(BM_MutualInductanceKernel);

void BM_PartialMatrixAssembly(benchmark::State& state) {
  const auto segs = bus_segments(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(extract::build_partial_inductance_matrix(segs));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PartialMatrixAssembly)->Range(16, 256)->Complexity();

// Thread-scaling variant: same 256-segment assembly on explicit pool sizes,
// so the emitted JSON shows the parallel speedup next to the serial curve.
void BM_PartialMatrixAssemblyMT(benchmark::State& state) {
  const auto segs = bus_segments(256);
  runtime::set_global_threads(static_cast<unsigned>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(extract::build_partial_inductance_matrix(segs));
  runtime::set_global_threads(0);  // back to the IND_THREADS/hardware default
}
BENCHMARK(BM_PartialMatrixAssemblyMT)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_DenseLuFactor(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  la::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 4.0;
    if (i + 1 < n) {
      a(i, i + 1) = -1.0;
      a(i + 1, i) = -1.0;
    }
  }
  for (auto _ : state) {
    la::Matrix copy = a;
    benchmark::DoNotOptimize(la::LU(std::move(copy)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DenseLuFactor)->Range(32, 512)->Complexity();

// Block-size sweep at n = 512: Arg(1) is the classic unblocked elimination,
// the rest are cache-blocked panel widths (48 = the LuOptions default).
void BM_DenseLuFactorBlocked(benchmark::State& state) {
  const std::size_t n = 512;
  const auto blk = static_cast<std::size_t>(state.range(0));
  const la::Matrix a = dominant_matrix(n, 17);
  for (auto _ : state) {
    la::Matrix copy = a;
    benchmark::DoNotOptimize(
        la::LU(std::move(copy), la::LuOptions{.block = blk}));
  }
}
BENCHMARK(BM_DenseLuFactorBlocked)
    ->Arg(1)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Headline blocked-vs-scalar comparison at n = 2048 (the ROADMAP item-4
// target). One iteration each; wall-clock and factor digests land in
// BENCH_kernels.json as kernels.lu2048.* counters so CI can gate the >= 3x
// speedup and diff the digests across IND_THREADS without parsing gbench
// output.
void BM_DenseLu2048Blocked(benchmark::State& state) {
  const la::Matrix a = dominant_matrix(2048, 29);
  for (auto _ : state) {
    la::Matrix copy = a;
    const auto t0 = std::chrono::steady_clock::now();
    const la::LU f(std::move(copy));
    runtime::MetricsRegistry::instance().max_count(
        "kernels.lu2048.blocked_ms",
        static_cast<std::int64_t>(std::llround(ms_since(t0))));
    publish_factor_digest("kernels.lu2048.digest", f);
    benchmark::DoNotOptimize(f.packed().data());
  }
}
BENCHMARK(BM_DenseLu2048Blocked)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_DenseLu2048Scalar(benchmark::State& state) {
  const la::Matrix a = dominant_matrix(2048, 29);
  for (auto _ : state) {
    la::Matrix copy = a;
    const auto t0 = std::chrono::steady_clock::now();
    const la::LU f(std::move(copy), la::LuOptions{.block = 1});
    runtime::MetricsRegistry::instance().max_count(
        "kernels.lu2048.scalar_ms",
        static_cast<std::int64_t>(std::llround(ms_since(t0))));
    // Same counter as the blocked run: max_count keeps whichever value both
    // agree on, and CI separately asserts the two paths' digests match by
    // re-running under different IND_THREADS.
    publish_factor_digest("kernels.lu2048.scalar_digest", f);
    benchmark::DoNotOptimize(f.packed().data());
  }
}
BENCHMARK(BM_DenseLu2048Scalar)->Iterations(1)->Unit(benchmark::kMillisecond);

// Batch Grover kernel throughput (the assembly/Toeplitz hot loop).
void BM_MutualBatch(benchmark::State& state) {
  const std::size_t n = 4096;
  std::vector<double> l1(n), l2(n), gap(n), gmd(n), out(n);
  for (std::size_t k = 0; k < n; ++k) {
    l1[k] = um(100.0 + static_cast<double>(k % 13));
    l2[k] = um(90.0 + static_cast<double>(k % 7));
    gap[k] = um(static_cast<double>(k % 29) - 10.0);
    gmd[k] = um(1.0 + 0.1 * static_cast<double>(k % 11));
  }
  for (auto _ : state) {
    extract::mutual_partial_inductance_batch(n, l1.data(), l2.data(),
                                             gap.data(), gmd.data(),
                                             out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MutualBatch);

void BM_SparseLuGridFactor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  la::TripletMatrix t(static_cast<std::size_t>(n * n),
                      static_cast<std::size_t>(n * n));
  auto id = [&](int i, int j) { return static_cast<std::size_t>(i * n + j); };
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      t.add(id(i, j), id(i, j), 4.0);
      if (i > 0) t.add(id(i, j), id(i - 1, j), -1.0);
      if (i < n - 1) t.add(id(i, j), id(i + 1, j), -1.0);
      if (j > 0) t.add(id(i, j), id(i, j - 1), -1.0);
      if (j < n - 1) t.add(id(i, j), id(i, j + 1), -1.0);
    }
  const la::CscMatrix a(t);
  for (auto _ : state) benchmark::DoNotOptimize(la::SparseLu(a));
}
BENCHMARK(BM_SparseLuGridFactor)->Range(8, 64);

void BM_PeecModelBuild(benchmark::State& state) {
  geom::Layout layout(geom::default_tech());
  // Deliberately NOT cached: this micro-benchmark measures the build cost.
  bench::add_grid_line(
      layout, {.extent_um = 400, .pitch_um = 100, .signal_length_um = 800});
  peec::PeecOptions opts;
  opts.max_segment_length = um(100);
  for (auto _ : state)
    benchmark::DoNotOptimize(peec::build_peec_model(layout, opts));
}
BENCHMARK(BM_PeecModelBuild);

void BM_TransientStep(benchmark::State& state) {
  circuit::Netlist nl;
  const auto in = nl.node("in");
  nl.add_vsource(in, circuit::kGround, circuit::Pwl({{0.0, 0.0}, {1e-11, 1.0}}));
  circuit::NodeId prev = in;
  for (int k = 0; k < 100; ++k) {
    const auto next = nl.make_node();
    nl.add_resistor(prev, next, 10.0);
    nl.add_capacitor(next, circuit::kGround, 5e-15);
    prev = next;
  }
  circuit::TransientOptions opts;
  opts.t_stop = 0.2e-9;
  opts.dt = 1e-12;
  const circuit::Probe p{circuit::ProbeKind::NodeVoltage,
                         static_cast<std::size_t>(prev), "out"};
  for (auto _ : state)
    benchmark::DoNotOptimize(circuit::transient(nl, {p}, opts));
}
BENCHMARK(BM_TransientStep);

}  // namespace

// Expanded BENCHMARK_MAIN so the run also lands in BENCH_kernels.json (the
// per-phase timers/counters the harness tracks across PRs). Unless the
// caller picks their own --benchmark_out, per-benchmark timings — including
// the BM_PartialMatrixAssemblyMT/1..8 thread-scaling rows — additionally go
// to BENCH_kernels_gbench.json so the speedup is machine-readable too.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_kernels_gbench.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ind::runtime::write_bench_report("kernels");
  return 0;
}
