// Dense vs FFT-GMRES loop-extraction crossover sweep.
//
// A lattice-aligned bus (uniform 2 um cross-section, every coordinate a
// multiple of the 4 um voxel pitch) is extracted by both methods at matched
// discretisation (refine length == voxel pitch), so the voxelized system is
// mathematically identical to the dense one and any disagreement is solver
// error. Dense runs up to the sizes the O(n^3) complex LU can stomach; the
// FFT path continues into the tens of thousands of filaments.
//
// Output: a human table, plus per-size counters in BENCH_fft.json —
//   fast.crossover.n<K>.dense_us / .fft_us   wall microseconds per solve
//   fast.crossover.n<K>.rel_ppb              |L_fft - L_dense| / L_dense, ppb
//   fast.crossover.n<K>.l_fh                 loop inductance, femtohenries
//   fast.crossover.n<K>.precond_fill_per_nnz_x1000
//                                            FFT preconditioner sparse LU
//                                            fill / matrix nnz, thousandths
//   fast.crossover.n<K>.gmres_iters_per_solve
//   fast.crossover.n<K>.peak_tracked_bytes   govern tracked-memory peak of
//                                            the FFT extraction
//   fast.crossover.n<K>.dense_meshes         independent loops the Dense
//                                            mesh formulation solves for
//   fast.crossover.speedup_x1000             dense/fft ratio at the largest
//                                            common size, thousandths
// Every extraction restarts the sparse LU, mesh-count and tracked-memory
// high-water marks, so the global factor.sparse_lu.* and
// govern.peak_tracked_bytes counters describe the last (largest, FFT-only)
// point.
// Only wires 0 and 1 close a loop; the other wires are floating chains,
// which the mesh formulation drops (a tree adds no mesh). Dense therefore
// solves for almost no unknowns here and mostly times the partial-L build.
// The CI fft-crossover job asserts rel_ppb <= 1000 (1e-6), fill/nnz <= 5,
// dense_meshes < K and no dense fallback from the JSON.
//
// --ci runs a trimmed sweep sized for the gate, not for the committed
// BENCH_fft.json numbers.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "geom/layout.hpp"
#include "govern/memory.hpp"
#include "loop/mqs_solver.hpp"
#include "runtime/bench_report.hpp"
#include "runtime/metrics.hpp"

using namespace ind;
using geom::um;

namespace {

struct SweepPoint {
  int wires;
  int cols;  // filaments = wires * cols (refine length == pitch)
  bool dense;
};

struct Extraction {
  double l_henries = 0.0;
  double seconds = 0.0;
  std::int64_t fill_nnz = 0, matrix_nnz = 0, gmres_iters = 0;
  std::int64_t peak_tracked_bytes = 0;
  std::int64_t meshes = 0;
};

constexpr double kPitchUm = 4.0;
constexpr double kFreq = 1e9;

geom::Layout bus_layout(int wires, int cols) {
  geom::Layout l(geom::default_tech());
  const int sig = l.add_net("sig", geom::NetKind::Signal);
  const int gnd = l.add_net("gnd", geom::NetKind::Ground);
  const double len = cols * um(kPitchUm);
  for (int w = 0; w < wires; ++w)
    l.add_wire(w == 0 ? sig : gnd, 6, {0, w * um(kPitchUm)},
               {len, w * um(kPitchUm)}, um(2));
  return l;
}

Extraction run_extraction(const geom::Layout& l, int cols,
                   loop::ExtractionMethod method) {
  loop::MqsOptions opts;
  opts.method = method;
  opts.fast.voxel.pitch = um(kPitchUm);
  // Per-extraction counts: zero the sparse LU and mesh-count high-water
  // marks and the tracked-memory peak, and difference the running GMRES
  // iteration total.
  auto& metrics = runtime::MetricsRegistry::instance();
  metrics.counter("factor.sparse_lu.fill_nnz").value.store(0);
  metrics.counter("factor.sparse_lu.max_nnz").value.store(0);
  metrics.counter("solve.mqs_port.max_meshes").value.store(0);
  govern::reset_peak_tracked_bytes();
  const std::int64_t iters0 =
      metrics.counter("solve.gmres.iterations").value.load();
  const auto t0 = std::chrono::steady_clock::now();
  loop::MqsSolver solver(l.segments(), l.vias(), l.tech(), opts);
  const double len = cols * um(kPitchUm);
  const auto pf = solver.node_at({len, 0}, 6);
  const auto mf = solver.node_at({len, um(kPitchUm)}, 6);
  solver.short_nodes(*pf, *mf);
  const auto z = solver.port_impedance(*solver.node_at({0, 0}, 6),
                                       *solver.node_at({0, um(kPitchUm)}, 6),
                                       kFreq);
  const auto t1 = std::chrono::steady_clock::now();
  return {z.inductance, std::chrono::duration<double>(t1 - t0).count(),
          metrics.counter("factor.sparse_lu.fill_nnz").value.load(),
          metrics.counter("factor.sparse_lu.max_nnz").value.load(),
          metrics.counter("solve.gmres.iterations").value.load() - iters0,
          govern::peak_tracked_bytes(),
          metrics.counter("solve.mqs_port.max_meshes").value.load()};
}

}  // namespace

int main(int argc, char** argv) {
  bool ci = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--ci") == 0) ci = true;

  runtime::BenchReport bench_report("fft");
  std::printf("FFT-GMRES vs dense loop extraction — crossover sweep%s\n",
              ci ? " (--ci)" : "");
  std::printf("====================================================\n\n");

  // refine == pitch keeps the two discretisations identical, so the l_fh
  // columns must match to solver tolerance wherever both methods run.
  const std::vector<SweepPoint> sweep =
      ci ? std::vector<SweepPoint>{{4, 64, true}, {4, 128, true}, {8, 128, false}}
         : std::vector<SweepPoint>{{4, 128, true},  {4, 256, true},
                                   {8, 256, true},  {8, 768, false},
                                   {16, 768, false}, {16, 1536, false}};

  auto& metrics = runtime::MetricsRegistry::instance();
  std::printf("%10s %14s %12s %12s %12s %9s %6s %11s\n", "filaments",
              "L (nH)", "dense (s)", "fft (s)", "rel diff", "fill/nnz",
              "iters", "tracked MB");
  double last_common_speedup = 0.0;
  for (const SweepPoint& pt : sweep) {
    const int n = pt.wires * pt.cols;
    const geom::Layout l =
        geom::refine(bus_layout(pt.wires, pt.cols), um(kPitchUm));

    const Extraction fft = run_extraction(l, pt.cols, loop::ExtractionMethod::FftGmres);
    Extraction dense;
    double rel = 0.0;
    if (pt.dense) {
      dense = run_extraction(l, pt.cols, loop::ExtractionMethod::Dense);
      rel = std::abs(fft.l_henries - dense.l_henries) /
            std::abs(dense.l_henries);
      last_common_speedup = dense.seconds / fft.seconds;
    }

    const std::string key = "fast.crossover.n" + std::to_string(n);
    metrics.add_count(key + ".fft_us",
                      static_cast<std::int64_t>(fft.seconds * 1e6));
    metrics.add_count(key + ".l_fh",
                      static_cast<std::int64_t>(fft.l_henries * 1e15));
    const double fill_per_nnz =
        fft.matrix_nnz > 0 ? static_cast<double>(fft.fill_nnz) /
                                 static_cast<double>(fft.matrix_nnz)
                           : 0.0;
    metrics.add_count(key + ".precond_fill_per_nnz_x1000",
                      static_cast<std::int64_t>(fill_per_nnz * 1e3));
    metrics.add_count(key + ".gmres_iters_per_solve", fft.gmres_iters);
    metrics.add_count(key + ".peak_tracked_bytes", fft.peak_tracked_bytes);
    if (pt.dense) {
      metrics.add_count(key + ".dense_us",
                        static_cast<std::int64_t>(dense.seconds * 1e6));
      metrics.add_count(key + ".rel_ppb",
                        static_cast<std::int64_t>(rel * 1e9));
      metrics.add_count(key + ".dense_meshes", dense.meshes);
    }

    const double tracked_mb =
        static_cast<double>(fft.peak_tracked_bytes) / (1 << 20);
    if (pt.dense) {
      std::printf("%10d %14.5f %12.3f %12.3f %12.2e %9.2f %6lld %11.1f\n", n,
                  fft.l_henries * 1e9, dense.seconds, fft.seconds, rel,
                  fill_per_nnz, static_cast<long long>(fft.gmres_iters),
                  tracked_mb);
    } else {
      std::printf("%10d %14.5f %12s %12.3f %12s %9.2f %6lld %11.1f\n", n,
                  fft.l_henries * 1e9, "-", fft.seconds, "-", fill_per_nnz,
                  static_cast<long long>(fft.gmres_iters), tracked_mb);
    }
  }
  metrics.add_count("fast.crossover.speedup_x1000",
                    static_cast<std::int64_t>(last_common_speedup * 1e3));
  std::printf("\nspeedup at largest common size: %.1fx\n", last_common_speedup);
  return 0;
}
