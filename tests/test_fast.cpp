// Unit tests for the FFT-accelerated extraction subsystem (src/fast/):
// mixed-radix FFT correctness and determinism, voxelizer invariants, the
// Toeplitz operator vs its dense materialisation, GMRES, and the full
// FftGmres-vs-Dense solver agreement on lattice-aligned layouts.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "fast/fft.hpp"
#include "fast/precond.hpp"
#include "fast/toeplitz_op.hpp"
#include "fast/voxelize.hpp"
#include "geom/layout.hpp"
#include "govern/budget.hpp"
#include "la/gmres.hpp"
#include "la/lu.hpp"
#include "loop/mqs_solver.hpp"
#include "robust/fault_injection.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace ind;
using geom::um;
using la::Complex;
using la::CVector;

// Deterministic pseudo-random doubles in [-1, 1] (no std::random to keep the
// sequences identical across standard libraries).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  double next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return 2.0 * (static_cast<double>(state_ >> 11) /
                  static_cast<double>(1ULL << 53)) -
           1.0;
  }

 private:
  std::uint64_t state_;
};

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Lcg rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) x = {rng.next(), rng.next()};
  return v;
}

// O(n^2) reference DFT.
std::vector<Complex> naive_dft(const std::vector<Complex>& in, bool inverse) {
  const std::size_t n = in.size();
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{};
    for (std::size_t j = 0; j < n; ++j)
      acc += in[j] * std::polar(1.0, sign * 2.0 * M_PI *
                                         static_cast<double>(j * k) /
                                         static_cast<double>(n));
    out[k] = acc;
  }
  return out;
}

double max_abs_diff(const std::vector<Complex>& a,
                    const std::vector<Complex>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

class FastTest : public ::testing::Test {
 protected:
  void TearDown() override {
    robust::fault::clear();
    auto& gov = govern::Governor::instance();
    gov.configure({});
    gov.begin_run();
    runtime::set_global_threads(0);
  }
};

// ---------------------------------------------------------------------------
// FFT
// ---------------------------------------------------------------------------

TEST_F(FastTest, GoodFftSizeIsSmallestSmooth) {
  EXPECT_EQ(fast::good_fft_size(1), 1u);
  EXPECT_EQ(fast::good_fft_size(2), 2u);
  EXPECT_EQ(fast::good_fft_size(7), 8u);
  EXPECT_EQ(fast::good_fft_size(11), 12u);
  EXPECT_EQ(fast::good_fft_size(13), 15u);
  EXPECT_EQ(fast::good_fft_size(97), 100u);
  EXPECT_EQ(fast::good_fft_size(121), 125u);
  EXPECT_EQ(fast::good_fft_size(128), 128u);
}

TEST_F(FastTest, FftRoundTripAcrossSizes) {
  // Powers of two, mixed 2/3/5 composites, and raw primes (direct-DFT radix).
  for (const std::size_t n :
       {1u, 2u, 3u, 4u, 5u, 6u, 8u, 12u, 16u, 30u, 60u, 100u, 101u, 128u}) {
    const auto original = random_signal(n, 42 + n);
    auto data = original;
    std::vector<Complex> scratch(n);
    const fast::FftPlan plan(n);
    plan.forward(data.data(), scratch.data());
    plan.inverse(data.data(), scratch.data());
    EXPECT_LT(max_abs_diff(data, original), 1e-13) << "n=" << n;
  }
}

TEST_F(FastTest, FftMatchesNaiveDft) {
  for (const std::size_t n : {2u, 3u, 5u, 7u, 8u, 12u, 13u, 24u, 31u, 45u}) {
    const auto in = random_signal(n, 7 * n + 1);
    std::vector<Complex> out(n);
    const fast::FftPlan plan(n);
    plan.transform(in.data(), out.data(), false);
    EXPECT_LT(max_abs_diff(out, naive_dft(in, false)), 1e-11 * n) << "n=" << n;
  }
}

TEST_F(FastTest, FftParseval) {
  const std::size_t n = 360;  // 2^3 * 3^2 * 5
  const auto in = random_signal(n, 99);
  std::vector<Complex> out(n);
  const fast::FftPlan plan(n);
  plan.transform(in.data(), out.data(), false);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const Complex& x : in) time_energy += std::norm(x);
  for (const Complex& x : out) freq_energy += std::norm(x);
  EXPECT_NEAR(time_energy, freq_energy / static_cast<double>(n),
              1e-12 * time_energy);
}

TEST_F(FastTest, Fft3dMatchesNaivePerAxis) {
  const std::array<std::size_t, 3> shape = {4, 3, 5};
  const std::size_t total = shape[0] * shape[1] * shape[2];
  auto data = random_signal(total, 1234);
  auto expect = data;
  // Reference: naive DFT applied axis by axis.
  for (int axis = 0; axis < 3; ++axis) {
    const std::size_t n = shape[static_cast<std::size_t>(axis)];
    auto index = [&](std::size_t i0, std::size_t i1, std::size_t i2) {
      return (i0 * shape[1] + i1) * shape[2] + i2;
    };
    for (std::size_t a = 0; a < (axis == 0 ? shape[1] : shape[0]); ++a) {
      for (std::size_t b = 0; b < (axis == 2 ? shape[1] : shape[2]); ++b) {
        std::vector<Complex> line(n);
        for (std::size_t k = 0; k < n; ++k)
          line[k] = axis == 0 ? expect[index(k, a, b)]
                    : axis == 1 ? expect[index(a, k, b)]
                                : expect[index(a, b, k)];
        line = naive_dft(line, false);
        for (std::size_t k = 0; k < n; ++k)
          (axis == 0 ? expect[index(k, a, b)]
           : axis == 1 ? expect[index(a, k, b)]
                       : expect[index(a, b, k)]) = line[k];
      }
    }
  }
  fast::fft_3d(shape, data, false);
  EXPECT_LT(max_abs_diff(data, expect), 1e-11);
}

TEST_F(FastTest, Fft3dRoundTrip) {
  const std::array<std::size_t, 3> shape = {8, 5, 6};
  const auto original = random_signal(shape[0] * shape[1] * shape[2], 5);
  auto data = original;
  fast::fft_3d(shape, data, false);
  fast::fft_3d(shape, data, true);
  EXPECT_LT(max_abs_diff(data, original), 1e-13);
}

TEST_F(FastTest, BatchFftBitwiseDeterministicAcrossThreadCounts) {
  const std::size_t n = 48, batch = 64;
  const auto original = random_signal(n * batch, 77);
  const fast::FftPlan plan(n);

  runtime::set_global_threads(1);
  auto serial = original;
  fast::fft_batch(plan, serial.data(), batch, n, false);

  runtime::set_global_threads(4);
  auto parallel = original;
  fast::fft_batch(plan, parallel.data(), batch, n, false);

  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].real(), parallel[i].real()) << i;
    EXPECT_EQ(serial[i].imag(), parallel[i].imag()) << i;
  }
}

// ---------------------------------------------------------------------------
// Voxelizer
// ---------------------------------------------------------------------------

// Aligned multi-wire layout: everything an integer multiple of 1 um, uniform
// 2 um cross-section (no skin split at default options).
geom::Layout aligned_bus(int wires, double len = um(40),
                         double spacing = um(4)) {
  geom::Layout l(geom::default_tech());
  const int sig = l.add_net("sig", geom::NetKind::Signal);
  const int gnd = l.add_net("gnd", geom::NetKind::Ground);
  for (int w = 0; w < wires; ++w)
    l.add_wire(w == 0 ? sig : gnd, 6, {0, w * spacing}, {len, w * spacing},
               um(2));
  geom::Driver d;
  d.at = {0, 0};
  d.layer = 6;
  d.signal_net = sig;
  l.add_driver(d);
  return l;
}

TEST_F(FastTest, VoxelizerAlignedLayoutHasZeroSnapError) {
  const geom::Layout l = geom::refine(aligned_bus(3), um(10));
  std::vector<std::size_t> parent_of;
  const auto fil = extract::split_all(l.segments(), parent_of, {});
  fast::VoxelOptions vo;
  vo.pitch = um(2);
  const fast::VoxelGrid grid = fast::voxelize(fil, l.tech(), vo);
  EXPECT_GT(grid.cells.size(), 0u);
  EXPECT_EQ(grid.stats.max_snap, 0.0);
  EXPECT_EQ(grid.stats.dropped_filaments, 0u);
  EXPECT_NEAR(grid.stats.length_out, grid.stats.length_in,
              1e-12 * grid.stats.length_in);
  EXPECT_EQ(grid.stats.relative_error(grid.pitch), 0.0);
}

TEST_F(FastTest, VoxelizerPreservesFilamentResistanceExactly) {
  const geom::Layout l = geom::refine(aligned_bus(2), um(10));
  std::vector<std::size_t> parent_of;
  const auto fil = extract::split_all(l.segments(), parent_of, {});
  fast::VoxelOptions vo;
  vo.pitch = um(2);
  const fast::VoxelGrid grid = fast::voxelize(fil, l.tech(), vo);

  std::vector<double> per_filament(fil.size(), 0.0);
  for (std::size_t c = 0; c < grid.cells.size(); ++c)
    per_filament[grid.cells[c].filament] += grid.resistance[c];
  for (std::size_t k = 0; k < fil.size(); ++k) {
    const geom::Layer& layer = l.tech().layer(fil[k].layer);
    const double rho = layer.sheet_resistance * layer.thickness;
    const double expect = std::max(
        rho * fil[k].length() / (fil[k].width * fil[k].thickness), 1e-9);
    // Even distribution over n cells then summed back: only rounding noise.
    EXPECT_NEAR(per_filament[k], expect, 1e-12 * expect) << "filament " << k;
  }
}

// ---------------------------------------------------------------------------
// Toeplitz operator
// ---------------------------------------------------------------------------

TEST_F(FastTest, ToeplitzApplyMatchesDenseOnRandomGrids) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    // Random aligned wires on two layers and both routing directions.
    Lcg rng(seed);
    geom::Layout l(geom::default_tech());
    const int net = l.add_net("n", geom::NetKind::Ground);
    for (int w = 0; w < 6; ++w) {
      const int row = static_cast<int>((rng.next() + 1.0) * 8.0);
      const int start = static_cast<int>((rng.next() + 1.0) * 4.0);
      const int span = 4 + static_cast<int>((rng.next() + 1.0) * 6.0);
      if (w % 2 == 0) {
        l.add_wire(net, 6, {um(2.0 * start), um(2.0 * row)},
                   {um(2.0 * (start + span)), um(2.0 * row)}, um(2));
      } else {
        l.add_wire(net, 5, {um(2.0 * row), um(2.0 * start)},
                   {um(2.0 * row), um(2.0 * (start + span))}, um(2));
      }
    }
    std::vector<std::size_t> parent_of;
    const auto fil = extract::split_all(l.segments(), parent_of, {});
    fast::VoxelOptions vo;
    vo.pitch = um(2);
    fast::VoxelGrid grid = fast::voxelize(fil, l.tech(), vo);
    ASSERT_GT(grid.cells.size(), 0u);
    const fast::ToeplitzLOperator op(std::move(grid));

    const auto xs = random_signal(op.size(), seed * 31);
    CVector x(xs.begin(), xs.end()), y_fft, y_dense;
    op.apply(x, y_fft);
    op.apply_dense(x, y_dense);
    double scale = 0.0;
    for (const Complex& v : y_dense) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < op.size(); ++i)
      EXPECT_LT(std::abs(y_fft[i] - y_dense[i]), 1e-12 * scale)
          << "seed " << seed << " cell " << i;
  }
}

TEST_F(FastTest, ToeplitzDenseApplyBitwiseEqualsMatrixMultiply) {
  // Single-axis grid: apply_dense's block-local summation order coincides
  // with the dense row order, so the two must agree to the last bit.
  const geom::Layout l = geom::refine(aligned_bus(3), um(10));
  std::vector<std::size_t> parent_of;
  const auto fil = extract::split_all(l.segments(), parent_of, {});
  fast::VoxelOptions vo;
  vo.pitch = um(2);
  fast::VoxelGrid grid = fast::voxelize(fil, l.tech(), vo);
  const fast::ToeplitzLOperator op(std::move(grid));

  const auto xs = random_signal(op.size(), 17);
  CVector x(xs.begin(), xs.end()), y;
  op.apply_dense(x, y);

  const la::Matrix dense = op.to_dense();
  for (std::size_t i = 0; i < op.size(); ++i) {
    Complex acc{};
    for (std::size_t j = 0; j < op.size(); ++j) acc += dense(i, j) * x[j];
    EXPECT_EQ(y[i].real(), acc.real()) << i;
    EXPECT_EQ(y[i].imag(), acc.imag()) << i;
  }
}

TEST_F(FastTest, ToeplitzDenseMatrixIsSymmetric) {
  const geom::Layout l = geom::refine(aligned_bus(2), um(20));
  std::vector<std::size_t> parent_of;
  const auto fil = extract::split_all(l.segments(), parent_of, {});
  fast::VoxelOptions vo;
  vo.pitch = um(4);
  fast::VoxelGrid grid = fast::voxelize(fil, l.tech(), vo);
  const fast::ToeplitzLOperator op(std::move(grid));
  const la::Matrix dense = op.to_dense();
  for (std::size_t i = 0; i < op.size(); ++i) {
    EXPECT_GT(dense(i, i), 0.0);
    for (std::size_t j = i + 1; j < op.size(); ++j)
      EXPECT_EQ(dense(i, j), dense(j, i));
  }
}

// ---------------------------------------------------------------------------
// GMRES
// ---------------------------------------------------------------------------

TEST_F(FastTest, GmresSolvesDenseComplexSystem) {
  const std::size_t n = 40;
  Lcg rng(3);
  la::CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = {rng.next(), rng.next()};
    a(i, i) += Complex{8.0, 2.0};  // diagonally dominant
  }
  const auto bs = random_signal(n, 4);
  const CVector b(bs.begin(), bs.end());
  la::CApplyFn apply = [&](const CVector& x, CVector& y) {
    y.assign(n, Complex{});
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) y[i] += a(i, j) * x[j];
  };
  CVector x(n, Complex{});
  la::GmresOptions go;
  go.tol = 1e-12;
  const la::GmresResult r = la::gmres(apply, b, x, nullptr, go);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.relative_residual, 1e-12);

  const CVector exact = la::CLU(a).solve(b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(x[i] - exact[i]), 1e-9);
}

TEST_F(FastTest, GmresFaultInjectionReportsBreakdown) {
  robust::fault::configure("gmres_iter@0");
  const std::size_t n = 8;
  la::CApplyFn apply = [&](const CVector& x, CVector& y) { y = x; };
  CVector b(n, Complex{1.0, 0.0}), x(n, Complex{});
  la::GmresResult r = la::gmres(apply, b, x);
  EXPECT_TRUE(r.breakdown);
  EXPECT_FALSE(r.converged);
  // Next call is past the injected index: clean convergence.
  x.assign(n, Complex{});
  r = la::gmres(apply, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(robust::fault::fired(robust::fault::Site::GmresIter), 1u);
}

// ---------------------------------------------------------------------------
// Full solver: FftGmres vs Dense
// ---------------------------------------------------------------------------

geom::Layout aligned_loop_layout() {
  // Lattice-aligned two-wire loop (all coordinates multiples of 2 um,
  // uniform 2 um width): voxelization is exact, so FftGmres and Dense agree
  // to solver tolerance.
  geom::Layout l(geom::default_tech());
  const int sig = l.add_net("sig", geom::NetKind::Signal);
  const int gnd = l.add_net("gnd", geom::NetKind::Ground);
  l.add_wire(sig, 6, {0, 0}, {um(200), 0}, um(2));
  l.add_wire(gnd, 6, {0, um(8)}, {um(200), um(8)}, um(2));
  return l;
}

loop::MqsOptions fft_options() {
  loop::MqsOptions opts;
  opts.method = loop::ExtractionMethod::FftGmres;
  opts.fast.voxel.pitch = um(4);
  opts.fast.gmres.tol = 1e-11;
  return opts;
}

TEST_F(FastTest, FftGmresMatchesDenseOnAlignedLayout) {
  const geom::Layout l = geom::refine(aligned_loop_layout(), um(40));

  loop::MqsSolver dense(l.segments(), l.vias(), l.tech(), {});
  loop::MqsSolver fft(l.segments(), l.vias(), l.tech(), fft_options());
  EXPECT_EQ(fft.method(), loop::ExtractionMethod::FftGmres);
  ASSERT_NE(fft.voxel_grid(), nullptr);
  EXPECT_EQ(fft.voxel_grid()->stats.max_snap, 0.0);

  for (loop::MqsSolver* s : {&dense, &fft}) {
    const auto pf = s->node_at({um(200), 0}, 6);
    const auto mf = s->node_at({um(200), um(8)}, 6);
    ASSERT_TRUE(pf && mf);
    s->short_nodes(*pf, *mf);
  }
  const auto plus = dense.node_at({0, 0}, 6);
  const auto minus = dense.node_at({0, um(8)}, 6);
  ASSERT_TRUE(plus && minus);

  for (const double f : {1e8, 1e9, 1e10}) {
    const auto zd = dense.port_impedance(*plus, *minus, f);
    const auto zf = fft.port_impedance(*plus, *minus, f);
    EXPECT_NEAR(zf.resistance, zd.resistance, 1e-6 * zd.resistance)
        << "f=" << f;
    EXPECT_NEAR(zf.inductance, zd.inductance, 1e-6 * zd.inductance)
        << "f=" << f;
  }
}

TEST_F(FastTest, FftCrossCheckModeMatchesFft) {
  const geom::Layout l = geom::refine(aligned_loop_layout(), um(40));
  loop::MqsOptions a = fft_options();
  loop::MqsOptions b = fft_options();
  b.fast.use_fft = false;  // direct kernel summation (the A/B oracle)
  loop::MqsSolver sa(l.segments(), l.vias(), l.tech(), a);
  loop::MqsSolver sb(l.segments(), l.vias(), l.tech(), b);
  for (loop::MqsSolver* s : {&sa, &sb}) {
    const auto pf = s->node_at({um(200), 0}, 6);
    const auto mf = s->node_at({um(200), um(8)}, 6);
    s->short_nodes(*pf, *mf);
  }
  const auto plus = sa.node_at({0, 0}, 6);
  const auto minus = sa.node_at({0, um(8)}, 6);
  const auto za = sa.port_impedance(*plus, *minus, 1e9);
  const auto zb = sb.port_impedance(*plus, *minus, 1e9);
  EXPECT_NEAR(za.inductance, zb.inductance, 1e-9 * zb.inductance);
  EXPECT_NEAR(za.resistance, zb.resistance, 1e-9 * zb.resistance);
}

TEST_F(FastTest, AutoMethodResolvesByFilamentCount) {
  const geom::Layout l = geom::refine(aligned_loop_layout(), um(40));
  loop::MqsOptions opts;
  opts.method = loop::ExtractionMethod::Auto;
  opts.fast.voxel.pitch = um(4);

  opts.fast.auto_threshold = 100000;  // far above: stays dense
  loop::MqsSolver small(l.segments(), l.vias(), l.tech(), opts);
  EXPECT_EQ(small.method(), loop::ExtractionMethod::Dense);
  EXPECT_EQ(small.voxel_grid(), nullptr);

  opts.fast.auto_threshold = 1;  // at/above: switches to fft
  loop::MqsSolver big(l.segments(), l.vias(), l.tech(), opts);
  EXPECT_EQ(big.method(), loop::ExtractionMethod::FftGmres);
}

TEST_F(FastTest, PrecondKindsAllConverge) {
  const geom::Layout l = geom::refine(aligned_loop_layout(), um(40));
  loop::MqsSolver dense(l.segments(), l.vias(), l.tech(), {});
  const auto zd = [&] {
    const auto pf = dense.node_at({um(200), 0}, 6);
    const auto mf = dense.node_at({um(200), um(8)}, 6);
    dense.short_nodes(*pf, *mf);
    return dense.port_impedance(*dense.node_at({0, 0}, 6),
                                *dense.node_at({0, um(8)}, 6), 1e9);
  }();
  for (const fast::PrecondKind kind :
       {fast::PrecondKind::None, fast::PrecondKind::Diag,
        fast::PrecondKind::BlockDiag, fast::PrecondKind::Shell,
        fast::PrecondKind::Truncation}) {
    loop::MqsOptions opts = fft_options();
    opts.fast.precond.kind = kind;
    loop::MqsSolver fft(l.segments(), l.vias(), l.tech(), opts);
    const auto pf = fft.node_at({um(200), 0}, 6);
    const auto mf = fft.node_at({um(200), um(8)}, 6);
    fft.short_nodes(*pf, *mf);
    const auto zf = fft.port_impedance(*fft.node_at({0, 0}, 6),
                                       *fft.node_at({0, um(8)}, 6), 1e9);
    EXPECT_NEAR(zf.inductance, zd.inductance, 1e-6 * zd.inductance)
        << "kind " << static_cast<int>(kind);
  }
}

// Lattice-aligned signal with three ground returns per side (inner 2
// pitches out, middle 5, outer 8), each side's returns strapped at both
// ends, on a 4 um pitch. `floating` adds an unconnected wire 12 pitches
// out that belongs to no conductor group reaching the reference.
geom::Layout strapped_returns_layout(int cols, bool floating = false) {
  const double p = um(4), w = um(2), len = cols * p;
  geom::Layout l(geom::default_tech());
  const int sig = l.add_net("sig", geom::NetKind::Signal);
  const int gnd = l.add_net("gnd", geom::NetKind::Ground);
  l.add_wire(sig, 6, {0, 0}, {len, 0}, w);
  for (const int side : {1, -1}) {
    for (const int slot : {2, 5, 8})
      l.add_wire(gnd, 6, {0, side * slot * p}, {len, side * slot * p}, w);
    for (const double x : {0.0, len})
      l.add_wire(gnd, 6, {x, side * 2 * p}, {x, side * 8 * p}, w);
  }
  if (floating) l.add_wire(gnd, 6, {0, 12 * p}, {len, 12 * p}, w);
  return geom::refine(l, p);
}

/// Port across the signal and the inner return at x = 0; both sides tied
/// at the near end, everything shorted at the far end.
loop::LoopImpedance strapped_port_impedance(loop::MqsSolver& s, int cols,
                                            double f) {
  const double p = um(4), len = cols * p;
  const auto at = [&](double x, double y) {
    const auto n = s.node_at({x, y}, 6);
    EXPECT_TRUE(n.has_value()) << "no node at (" << x << ", " << y << ")";
    return n.value_or(0);
  };
  s.short_nodes(at(0, 2 * p), at(0, -2 * p));
  s.short_nodes(at(len, 0), at(len, 2 * p));
  s.short_nodes(at(len, 0), at(len, -2 * p));
  return s.port_impedance(at(0, 0), at(0, 2 * p), f);
}

loop::MqsOptions strapped_fft_options() {
  loop::MqsOptions opts;
  opts.method = loop::ExtractionMethod::FftGmres;
  opts.fast.voxel.pitch = um(4);
  return opts;
}

TEST_F(FastTest, DiagPrecondFactorsNodalAdmittanceWithLowFill) {
  // ~2.4k cells: the nodal Y = A diag(y) A^T keeps the sparse LU fill a
  // small multiple of its nnz, and, being the same preconditioner as the
  // saddle form, leaves GMRES at a handful of iterations.
  constexpr int kCols = 340;
  const geom::Layout l = strapped_returns_layout(kCols);
  loop::MqsSolver fft(l.segments(), l.vias(), l.tech(),
                      strapped_fft_options());
  ASSERT_NE(fft.voxel_grid(), nullptr);
  EXPECT_GT(fft.voxel_grid()->num_cells(), 2300u);
  auto& metrics = runtime::MetricsRegistry::instance();
  metrics.reset();
  const auto z = strapped_port_impedance(fft, kCols, 1e9);
  EXPECT_GT(z.resistance, 0.0);
  EXPECT_GT(z.inductance, 0.0);
  const auto fill = metrics.counter("factor.sparse_lu.fill_nnz").value.load();
  const auto nnz = metrics.counter("factor.sparse_lu.max_nnz").value.load();
  ASSERT_GT(nnz, 0);
  EXPECT_LE(static_cast<double>(fill) / static_cast<double>(nnz), 5.0)
      << "fill " << fill << " nnz " << nnz;
  EXPECT_LE(metrics.counter("solve.gmres.iterations").value.load(), 4);
  EXPECT_EQ(metrics.counter("fast.dense_fallbacks").value.load(), 0);
}

TEST_F(FastTest, DiagPrecondMatchesDenseOnStrappedReturns) {
  // With the floating wire, which reaches no reference, only the pin entry
  // keeps the nodal admittance non-singular; without it the sparse factor
  // would fall back to dense.
  constexpr int kCols = 12;
  auto& metrics = runtime::MetricsRegistry::instance();
  for (const bool floating : {false, true}) {
    const geom::Layout l = strapped_returns_layout(kCols, floating);
    loop::MqsSolver dense(l.segments(), l.vias(), l.tech(), {});
    loop::MqsSolver fft(l.segments(), l.vias(), l.tech(),
                        strapped_fft_options());
    metrics.reset();
    const auto zd = strapped_port_impedance(dense, kCols, 1e9);
    const auto zf = strapped_port_impedance(fft, kCols, 1e9);
    EXPECT_NEAR(zf.resistance, zd.resistance, 1e-9 * zd.resistance)
        << "floating " << floating;
    EXPECT_NEAR(zf.inductance, zd.inductance, 1e-9 * zd.inductance)
        << "floating " << floating;
    EXPECT_EQ(metrics.counter("fast.dense_fallbacks").value.load(), 0)
        << "floating " << floating;
    EXPECT_EQ(metrics.counter("robust.action.dense_fallback").value.load(),
              0)
        << "floating " << floating;
  }
}

TEST_F(FastTest, GmresFaultRetryRecovers) {
  const geom::Layout l = geom::refine(aligned_loop_layout(), um(40));
  loop::MqsSolver fft(l.segments(), l.vias(), l.tech(), fft_options());
  const auto pf = fft.node_at({um(200), 0}, 6);
  const auto mf = fft.node_at({um(200), um(8)}, 6);
  fft.short_nodes(*pf, *mf);
  const auto plus = fft.node_at({0, 0}, 6);
  const auto minus = fft.node_at({0, um(8)}, 6);

  const auto clean = fft.port_impedance(*plus, *minus, 1e9);
  robust::fault::configure("gmres_iter@0");  // first iteration breaks down
  const auto faulted = fft.port_impedance(*plus, *minus, 1e9);
  EXPECT_GE(robust::fault::fired(robust::fault::Site::GmresIter), 1u);
  // The retry rung re-runs GMRES past the injected index: same answer.
  EXPECT_NEAR(faulted.inductance, clean.inductance,
              1e-9 * clean.inductance);
}

TEST_F(FastTest, GmresPersistentFaultFallsBackToDense) {
  auto& metrics = runtime::MetricsRegistry::instance();
  metrics.reset();
  const geom::Layout l = geom::refine(aligned_loop_layout(), um(40));
  loop::MqsSolver dense(l.segments(), l.vias(), l.tech(), {});
  loop::MqsSolver fft(l.segments(), l.vias(), l.tech(), fft_options());
  for (loop::MqsSolver* s : {&dense, &fft}) {
    const auto pf = s->node_at({um(200), 0}, 6);
    const auto mf = s->node_at({um(200), um(8)}, 6);
    s->short_nodes(*pf, *mf);
  }
  const auto plus = fft.node_at({0, 0}, 6);
  const auto minus = fft.node_at({0, um(8)}, 6);
  const auto zd = dense.port_impedance(*plus, *minus, 1e9);

  robust::fault::configure("gmres_iter@*");  // every iteration breaks down
  const auto zf = fft.port_impedance(*plus, *minus, 1e9);
  robust::fault::clear();
  EXPECT_GE(metrics.counter("fast.dense_fallbacks").value.load(), 1);
  EXPECT_GE(metrics.counter("robust.action.dense_fallback").value.load(), 1);
  // The dense-fallback rung still produces the right answer.
  EXPECT_NEAR(zf.inductance, zd.inductance, 1e-6 * zd.inductance);
}

TEST_F(FastTest, GmresFallbackSolvesMeshesThroughRecoveryLadder) {
  // The strapped returns close independent loops, so the fallback's mesh
  // matrix is non-empty; a singular first factor takes the ladder's retry
  // rung and still reproduces Dense.
  constexpr int kCols = 12;
  const geom::Layout l = strapped_returns_layout(kCols);
  loop::MqsSolver dense(l.segments(), l.vias(), l.tech(), {});
  loop::MqsSolver fft(l.segments(), l.vias(), l.tech(),
                      strapped_fft_options());
  const auto zd = strapped_port_impedance(dense, kCols, 1e9);
  auto& metrics = runtime::MetricsRegistry::instance();
  metrics.reset();
  robust::fault::configure("gmres_iter@*;dense_lu_pivot@0");
  const auto zf = strapped_port_impedance(fft, kCols, 1e9);
  EXPECT_EQ(robust::fault::fired(robust::fault::Site::DenseLuPivot), 1);
  robust::fault::clear();
  EXPECT_EQ(metrics.counter("fast.dense_fallbacks").value.load(), 1);
  EXPECT_GT(metrics.counter("solve.mqs_port.max_meshes").value.load(), 0);
  EXPECT_NEAR(zf.resistance, zd.resistance, 1e-9 * zd.resistance);
  EXPECT_NEAR(zf.inductance, zd.inductance, 1e-9 * zd.inductance);
}

TEST_F(FastTest, WorkBudgetTripsAtAnyThreadCount) {
  // The trip *decision* is the deterministic part of the budget contract
  // (the in-flight unit total at the trip is not — chunks already running
  // on other threads still charge). A budget far below the kernel-table
  // build cost must trip the construction at every thread count.
  const geom::Layout l = geom::refine(aligned_loop_layout(), um(20));
  for (const unsigned threads : {1u, 4u}) {
    runtime::set_global_threads(threads);
    auto& gov = govern::Governor::instance();
    govern::RunBudget budget;
    budget.work_units = 50;
    gov.configure(budget);
    gov.begin_run();
    EXPECT_THROW(
        loop::MqsSolver(l.segments(), l.vias(), l.tech(), fft_options()),
        govern::CancelledError)
        << "threads=" << threads;
    EXPECT_EQ(gov.cancel_kind(), govern::BudgetKind::Work);
    gov.configure({});
    gov.begin_run();
  }
}

TEST_F(FastTest, GmresWorkChargeIsDeterministic) {
  // GMRES itself is strictly serial, so its unit total at a trip is a pure
  // function of the problem shape: two identical runs trip with identical
  // accumulated work.
  const std::size_t n = 600;  // units/iter = 1 + 600/256 = 3
  la::CApplyFn apply = [&](const CVector& x, CVector& y) {
    y = x;
    for (std::size_t i = 0; i < n; ++i) y[i] *= Complex{2.0, 0.1};
  };
  CVector b(n, Complex{1.0, 0.0});
  const auto units_of_run = [&] {
    auto& gov = govern::Governor::instance();
    govern::RunBudget budget;
    budget.work_units = 2;  // below one iteration's charge: trips at once
    gov.configure(budget);
    gov.begin_run();
    CVector x(n, Complex{});
    std::uint64_t trip_units = 0;
    try {
      la::gmres(apply, b, x);
    } catch (const govern::CancelledError&) {
      trip_units = gov.work_units();
    }
    gov.configure({});
    gov.begin_run();
    return trip_units;
  };
  const std::uint64_t first = units_of_run();
  EXPECT_GT(first, 2u);
  EXPECT_EQ(first, units_of_run());
}

}  // namespace
