// Unit tests for the FFT-accelerated extraction subsystem (src/fast/):
// mixed-radix FFT correctness and determinism, voxelizer invariants, the
// Toeplitz operator vs its dense materialisation, GMRES, and the full
// FftGmres-vs-Dense solver agreement on lattice-aligned layouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "fast/fft.hpp"
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
    std::vector<Complex> spectrum(n);
    const fast::FftPlan plan(n);
    plan.transform(data.data(), spectrum.data(), false);
    plan.transform(spectrum.data(), data.data(), true);
    const double scale = 1.0 / static_cast<double>(n);
    for (Complex& x : data) x *= scale;
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

// The recursive Cooley-Tukey transform FftPlan replays without recursing:
// the same ascending prime factorisation and length-n twiddle table, the
// radix-2 butterfly, and a direct-DFT combine for every other radix. The
// oracle of FlatFftBitwiseEqualsRecursiveOracle.
class RecursiveFft {
 public:
  explicit RecursiveFft(std::size_t n) : n_(n) {
    std::size_t r = n;
    for (std::size_t p = 2; p * p <= r;) {
      if (r % p == 0) {
        radices_.push_back(p);
        r /= p;
      } else {
        ++p;
      }
    }
    if (r > 1) radices_.push_back(r);
    twiddles_.resize(n);
    const double step = -2.0 * M_PI / static_cast<double>(n);
    for (std::size_t t = 0; t < n; ++t)
      twiddles_[t] = std::polar(1.0, step * static_cast<double>(t));
  }

  void transform(const Complex* in, Complex* out, bool inverse) const {
    std::vector<Complex> radix_buf(n_);
    recurse(in, 1, out, n_, 0, 1, inverse, radix_buf.data());
  }

 private:
  void recurse(const Complex* in, std::size_t in_stride, Complex* out,
               std::size_t n, std::size_t depth, std::size_t root_stride,
               bool inverse, Complex* radix_buf) const {
    if (n == 1) {
      out[0] = in[0];
      return;
    }
    const std::size_t r = radices_[depth];
    const std::size_t m = n / r;
    for (std::size_t q = 0; q < r; ++q)
      recurse(in + q * in_stride, in_stride * r, out + q * m, m, depth + 1,
              root_stride * r, inverse, radix_buf);
    // X[k] = sum_q w_n^{qk} Y_q[k mod m]; w_n = w_N^{N/n} sits at stride
    // root_stride in the global table, conjugated for the inverse.
    if (r == 2) {
      for (std::size_t k2 = 0; k2 < m; ++k2) {
        Complex w = twiddles_[k2 * root_stride];
        if (inverse) w = std::conj(w);
        const Complex a = out[k2];
        const Complex wb = w * out[m + k2];
        out[k2] = a + wb;
        out[m + k2] = a - wb;
      }
      return;
    }
    for (std::size_t k2 = 0; k2 < m; ++k2) {
      for (std::size_t q = 0; q < r; ++q) radix_buf[q] = out[q * m + k2];
      for (std::size_t k1 = 0; k1 < r; ++k1) {
        const std::size_t k = k1 * m + k2;
        Complex acc = radix_buf[0];
        for (std::size_t q = 1; q < r; ++q) {
          Complex w = twiddles_[((q * k) % n) * root_stride];
          if (inverse) w = std::conj(w);
          acc += w * radix_buf[q];
        }
        out[k] = acc;
      }
    }
  }

  std::size_t n_;
  std::vector<std::size_t> radices_;
  std::vector<Complex> twiddles_;
};

TEST_F(FastTest, FlatFftBitwiseEqualsRecursiveOracle) {
  // Every size to 64, the 720-point line of the loop_extract embedding, and
  // primes and a repeated prime that only the generic radix handles.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 64; ++n) sizes.push_back(n);
  for (const std::size_t n : {720u, 7u, 11u, 13u, 49u, 101u})
    sizes.push_back(n);
  for (const std::size_t n : sizes) {
    const fast::FftPlan plan(n);
    const RecursiveFft oracle(n);
    const auto in = random_signal(n, 1000 + n);
    for (const bool inverse : {false, true}) {
      std::vector<Complex> flat(n), expect(n);
      plan.transform(in.data(), flat.data(), inverse);
      oracle.transform(in.data(), expect.data(), inverse);
      EXPECT_EQ(std::memcmp(flat.data(), expect.data(), n * sizeof(Complex)),
                0)
          << "n=" << n << " inverse=" << inverse;
    }
    // A strided input reads the same elements.
    std::vector<Complex> spread(3 * n), strided(n), flat(n);
    for (std::size_t j = 0; j < n; ++j) spread[3 * j] = in[j];
    plan.transform(spread.data(), strided.data(), false, 3);
    plan.transform(in.data(), flat.data(), false);
    EXPECT_EQ(std::memcmp(strided.data(), flat.data(), n * sizeof(Complex)),
              0)
        << "n=" << n;
  }
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

// FNV-1a over the raw bit patterns of every real and imaginary part.
std::uint64_t bits_digest(const std::vector<Complex>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Complex& x : v)
    for (const double part : {x.real(), x.imag()}) {
      std::uint64_t bits;
      std::memcpy(&bits, &part, sizeof bits);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffu;
        h *= 1099511628211ULL;
      }
    }
  return h;
}

TEST_F(FastTest, BatchFftBitwiseDeterministicAcrossThreadCounts) {
  // Non-cubic shape: every axis has a different length, and the slowest one
  // is prime (direct-DFT radix). Each axis pass is a batch of line
  // transforms split into parallel chunks. The golden digests pin the exact
  // output bits, so the pass structure may change but the bits may not.
  const std::array<std::size_t, 3> shape = {7, 10, 48};
  const auto original = random_signal(shape[0] * shape[1] * shape[2], 77);
  constexpr std::uint64_t kForwardGolden = 0xe3e922855f1d8ffdULL;
  constexpr std::uint64_t kInverseGolden = 0x5c3746c9d8c3838eULL;
  for (const unsigned threads : {1u, 4u}) {
    runtime::set_global_threads(threads);
    auto data = original;
    fast::fft_3d(shape, data, false);
    EXPECT_EQ(bits_digest(data), kForwardGolden) << "threads=" << threads;
    fast::fft_3d(shape, data, true);
    EXPECT_EQ(bits_digest(data), kInverseGolden) << "threads=" << threads;
    EXPECT_LT(max_abs_diff(data, original), 1e-13);
  }
}

// fft_3d replayed one line at a time: RecursiveFft on every line of axis 2,
// then 1, then 0, each inverse output times 1/n.
void per_line_fft_3d(const std::array<std::size_t, 3>& shape,
                     std::vector<Complex>& data, bool inverse) {
  const std::array<std::size_t, 3> stride = {shape[1] * shape[2], shape[2],
                                             1};
  for (const std::size_t axis : {2u, 1u, 0u}) {
    const std::size_t n = shape[axis];
    if (n == 1) continue;
    const RecursiveFft oracle(n);
    const double scale = inverse ? 1.0 / static_cast<double>(n) : 1.0;
    std::vector<Complex> line(n), out(n);
    for (std::size_t base = 0; base < data.size(); ++base) {
      if ((base / stride[axis]) % n != 0) continue;  // not a line's start
      for (std::size_t j = 0; j < n; ++j)
        line[j] = data[base + j * stride[axis]];
      oracle.transform(line.data(), out.data(), inverse);
      for (std::size_t j = 0; j < n; ++j)
        data[base + j * stride[axis]] = out[j] * scale;
    }
  }
}

TEST_F(FastTest, BatchedLinePassBitwiseEqualsPerLineOracle) {
  // 1-9 lines of length n per pass, so every partial batch occurs. The
  // n-point lines are contiguous ({1, L, n}: axis 2) or strided ({1, n, L}:
  // axis 1; {n, L, 1}: axis 0); the L-point passes of each shape run too.
  for (const std::size_t n : {32u, 36u, 720u, 7u, 11u, 13u}) {
    for (std::size_t lines = 1; lines <= 9; ++lines) {
      const std::array<std::size_t, 3> shapes[] = {
          {1, lines, n}, {1, n, lines}, {n, lines, 1}};
      for (const auto& shape : shapes) {
        const auto input = random_signal(n * lines, 17 * n + lines);
        for (const unsigned threads : {1u, 3u}) {
          runtime::set_global_threads(threads);
          for (const bool inverse : {false, true}) {
            auto batched = input, expect = input;
            fast::fft_3d(shape, batched, inverse);
            per_line_fft_3d(shape, expect, inverse);
            EXPECT_EQ(std::memcmp(batched.data(), expect.data(),
                                  batched.size() * sizeof(Complex)),
                      0)
                << "shape " << shape[0] << "x" << shape[1] << "x" << shape[2]
                << " inverse " << inverse << " threads " << threads;
          }
        }
      }
    }
  }
}

// Random ascending support of an axis of extent n: one index, every index,
// or a random subset (never empty).
std::vector<std::size_t> random_support(std::size_t n, Lcg& rng) {
  const double kind = rng.next();
  std::vector<std::size_t> s;
  if (kind < -0.4) {
    s.push_back(std::min(n - 1, static_cast<std::size_t>(
                                    (rng.next() + 1.0) * 0.5 * n)));
  } else if (kind < 0.2) {
    for (std::size_t i = 0; i < n; ++i) s.push_back(i);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      if (rng.next() > 0.0) s.push_back(i);
    if (s.empty()) s.push_back(n / 2);
  }
  return s;
}

TEST_F(FastTest, PrunedFft3dMatchesFullOnSupport) {
  // Every axis > 1, so all three passes run, the n2 one included (no
  // consumer structure is thick enough to run it).
  Lcg rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    std::array<std::size_t, 3> shape{};
    for (std::size_t& n : shape)
      n = 2 + static_cast<std::size_t>((rng.next() + 1.0) * 5.0);
    const std::array<fast::FftPlan, 3> plans = {
        fast::FftPlan(shape[0]), fast::FftPlan(shape[1]),
        fast::FftPlan(shape[2])};
    fast::FftSupport support;
    for (std::size_t a = 0; a < 3; ++a)
      support[a] = random_support(shape[a], rng);
    const std::size_t total = shape[0] * shape[1] * shape[2];
    std::vector<std::size_t> on_support;
    for (const std::size_t i0 : support[0])
      for (const std::size_t i1 : support[1])
        for (const std::size_t i2 : support[2])
          on_support.push_back((i0 * shape[1] + i1) * shape[2] + i2);
    const auto values = random_signal(total, 300 + trial);
    std::vector<Complex> input(total, Complex{});
    for (const std::size_t i : on_support) input[i] = values[i];

    for (const unsigned threads : {1u, 4u}) {
      runtime::set_global_threads(threads);
      // Forward: skipped lines are all zero, so only the sign of a zero
      // may differ from the full transform; == treats +0 and -0 as equal.
      auto full = input, pruned = input;
      fast::fft_3d(shape, full, false);
      fast::fft_3d(plans, support, pruned, false);
      for (std::size_t i = 0; i < total; ++i)
        ASSERT_TRUE(pruned[i] == full[i])
            << "trial " << trial << " threads " << threads << " slot " << i;
      // Inverse of a dense spectrum: bitwise the full inverse on the
      // support, whatever it leaves elsewhere.
      full = values;
      pruned = values;
      fast::fft_3d(shape, full, true);
      fast::fft_3d(plans, support, pruned, true);
      for (const std::size_t i : on_support)
        ASSERT_EQ(std::memcmp(&pruned[i], &full[i], sizeof(Complex)), 0)
            << "trial " << trial << " threads " << threads << " slot " << i;
    }
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

TEST_F(FastTest, ToeplitzApplyMatchesDenseWithStackedSameAxisWires) {
  // X wires on two layers: the X block is more than one cell thick, so
  // apply runs its n2 passes too (pruned forward and full inverse).
  for (const std::uint64_t seed : {4u, 5u}) {
    Lcg rng(seed);
    geom::Layout l(geom::default_tech());
    const int net = l.add_net("n", geom::NetKind::Ground);
    for (int w = 0; w < 6; ++w) {
      const int row = static_cast<int>((rng.next() + 1.0) * 8.0);
      const int start = static_cast<int>((rng.next() + 1.0) * 4.0);
      const int span = 4 + static_cast<int>((rng.next() + 1.0) * 6.0);
      if (w % 3 == 2) {
        l.add_wire(net, 5, {um(2.0 * row), um(2.0 * start)},
                   {um(2.0 * row), um(2.0 * (start + span))}, um(2));
      } else {
        l.add_wire(net, w % 3 == 0 ? 6 : 4, {um(2.0 * start), um(2.0 * row)},
                   {um(2.0 * (start + span)), um(2.0 * row)}, um(2));
      }
    }
    std::vector<std::size_t> parent_of;
    const auto fil = extract::split_all(l.segments(), parent_of, {});
    fast::VoxelOptions vo;
    vo.pitch = um(2);
    fast::VoxelGrid grid = fast::voxelize(fil, l.tech(), vo);
    std::vector<std::int32_t> x_layers;
    for (const fast::VoxelCell& c : grid.cells)
      if (c.axis == geom::Axis::X) x_layers.push_back(c.iz);
    std::sort(x_layers.begin(), x_layers.end());
    ASSERT_GT(std::unique(x_layers.begin(), x_layers.end()) - x_layers.begin(),
              1);
    const fast::ToeplitzLOperator op(std::move(grid));

    const auto xs = random_signal(op.size(), seed * 37);
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

TEST_F(FastTest, AutoMethodRefusesOffLatticeLayout) {
  // The return sits 9 um out on a 4 um pitch: it snaps a quarter pitch,
  // far over Auto's 1 % bound, so Auto keeps Dense whatever the filament
  // count. An explicit FftGmres request still runs on the lattice.
  geom::Layout raw(geom::default_tech());
  const int sig = raw.add_net("sig", geom::NetKind::Signal);
  const int gnd = raw.add_net("gnd", geom::NetKind::Ground);
  raw.add_wire(sig, 6, {0, 0}, {um(200), 0}, um(2));
  raw.add_wire(gnd, 6, {0, um(9)}, {um(200), um(9)}, um(2));
  const geom::Layout l = geom::refine(raw, um(40));
  loop::MqsOptions opts;
  opts.method = loop::ExtractionMethod::Auto;
  opts.fast.voxel.pitch = um(4);
  opts.fast.auto_threshold = 1;

  auto& metrics = runtime::MetricsRegistry::instance();
  metrics.reset();
  loop::MqsSolver refused(l.segments(), l.vias(), l.tech(), opts);
  EXPECT_EQ(refused.method(), loop::ExtractionMethod::Dense);
  EXPECT_EQ(refused.voxel_grid(), nullptr);
  EXPECT_EQ(metrics.counter("fast.auto_refused").value.load(), 1);

  opts.method = loop::ExtractionMethod::FftGmres;
  loop::MqsSolver forced(l.segments(), l.vias(), l.tech(), opts);
  EXPECT_EQ(forced.method(), loop::ExtractionMethod::FftGmres);
  ASSERT_NE(forced.voxel_grid(), nullptr);
  EXPECT_GT(forced.voxel_grid()->stats.relative_error(um(4)),
            loop::kAutoMaxVoxelError);
  EXPECT_EQ(metrics.counter("fast.auto_refused").value.load(), 1);
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

TEST_F(FastTest, ToeplitzApplyTransformsOnlySupportedLines) {
  // loop_extract's structure. The expected line count is derived here from
  // the cells' per-axis occupancy, independently of the operator.
  constexpr int kCols = 340;
  const geom::Layout l = strapped_returns_layout(kCols);
  std::vector<std::size_t> parent_of;
  const auto fil = extract::split_all(l.segments(), parent_of, {});
  fast::VoxelOptions vo;
  vo.pitch = um(4);
  fast::VoxelGrid grid = fast::voxelize(fil, l.tech(), vo);

  std::int64_t pruned = 0, unpruned = 0;
  for (const geom::Axis axis : {geom::Axis::X, geom::Axis::Y}) {
    std::array<std::vector<std::int32_t>, 3> used;
    for (const fast::VoxelCell& c : grid.cells) {
      if (c.axis != axis) continue;
      used[0].push_back(c.ix);
      used[1].push_back(c.iy);
      used[2].push_back(c.iz);
    }
    if (used[0].empty()) continue;
    std::array<std::int64_t, 3> e{}, s{};  // embed extent, support size
    for (std::size_t a = 0; a < 3; ++a) {
      std::sort(used[a].begin(), used[a].end());
      const std::size_t dim =
          static_cast<std::size_t>(used[a].back() - used[a].front()) + 1;
      e[a] = static_cast<std::int64_t>(
          dim == 1 ? 1 : fast::good_fft_size(2 * dim - 1));
      s[a] = std::unique(used[a].begin(), used[a].end()) - used[a].begin();
    }
    // Forward: each pass needs the support of the axes not yet
    // transformed; inverse: of the axes already transformed.
    if (e[2] > 1) {
      pruned += s[0] * s[1] + e[0] * e[1];
      unpruned += 2 * e[0] * e[1];
    }
    if (e[1] > 1) {
      pruned += s[0] * e[2] + e[0] * s[2];
      unpruned += 2 * e[0] * e[2];
    }
    if (e[0] > 1) {
      pruned += e[1] * e[2] + s[1] * s[2];
      unpruned += 2 * e[1] * e[2];
    }
  }
  EXPECT_EQ(pruned, 1869);
  EXPECT_EQ(unpruned, 3016);

  const fast::ToeplitzLOperator op(std::move(grid));
  const auto xs = random_signal(op.size(), 11);
  CVector x(xs.begin(), xs.end()), y;
  auto& metrics = runtime::MetricsRegistry::instance();
  metrics.reset();
  op.apply(x, y);
  const std::int64_t lines = metrics.counter("fast.fft_lines").value.load();
  EXPECT_EQ(lines, pruned);
  EXPECT_LE(static_cast<double>(lines), 0.65 * static_cast<double>(unpruned));
}

TEST_F(FastTest, LoopExtractShapesMatchPinnedDigests) {
  // loop_extract's two blocks: the X block embeds (720, 36, 1) with 340
  // cells along the line in 7 rows, the straps' Y block (720, 32, 1) with 2
  // columns of 12 cells. The goldens pin the pruned transforms' bits and
  // one operator apply on that structure, whatever the line kernel's shape.
  // Three pool threads cut the line passes at chunk boundaries that are not
  // multiples of the kernel's batch.
  struct Case {
    std::array<std::size_t, 3> shape;
    fast::FftSupport support;
    std::uint64_t forward, inverse;
  };
  std::vector<std::size_t> along(340);
  std::iota(along.begin(), along.end(), std::size_t{0});
  const Case cases[] = {
      {{720, 36, 1},
       {{along, {0, 3, 6, 8, 10, 13, 16}, {0}}},
       0x5c76b6fd7925a502ULL,
       0x25ee4f09948e0088ULL},
      {{720, 32, 1},
       {{{0, 340}, {0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15}, {0}}},
       0x19c4177cc74e6483ULL,
       0xa8d1ad793a71b4e9ULL},
  };
  constexpr std::uint64_t kApplyGolden = 0xd6c170e8f0afad38ULL;

  const geom::Layout l = strapped_returns_layout(340);
  std::vector<std::size_t> parent_of;
  const auto fil = extract::split_all(l.segments(), parent_of, {});
  fast::VoxelOptions vo;
  vo.pitch = um(4);
  const fast::ToeplitzLOperator op(fast::voxelize(fil, l.tech(), vo));
  const auto xs = random_signal(op.size(), 29);
  const CVector x(xs.begin(), xs.end());

  for (const unsigned threads : {1u, 3u}) {
    runtime::set_global_threads(threads);
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message() << "threads " << threads << " shape "
                                      << c.shape[0] << "x" << c.shape[1]);
      const std::array<fast::FftPlan, 3> plans = {
          fast::FftPlan(c.shape[0]), fast::FftPlan(c.shape[1]),
          fast::FftPlan(c.shape[2])};
      const std::size_t total = c.shape[0] * c.shape[1] * c.shape[2];
      std::vector<std::size_t> on_support;
      for (const std::size_t i0 : c.support[0])
        for (const std::size_t i1 : c.support[1])
          for (const std::size_t i2 : c.support[2])
            on_support.push_back((i0 * c.shape[1] + i1) * c.shape[2] + i2);
      const auto values = random_signal(total, total);
      std::vector<Complex> data(total, Complex{});
      for (const std::size_t i : on_support) data[i] = values[i];
      fast::fft_3d(plans, c.support, data, false);
      EXPECT_EQ(bits_digest(data), c.forward)
          << std::hex << bits_digest(data);

      data = values;
      fast::fft_3d(plans, c.support, data, true);
      std::vector<Complex> read;
      for (const std::size_t i : on_support) read.push_back(data[i]);
      EXPECT_EQ(bits_digest(read), c.inverse) << std::hex << bits_digest(read);
    }
    CVector y;
    op.apply(x, y);
    const std::uint64_t applied = bits_digest({y.begin(), y.end()});
    EXPECT_EQ(applied, kApplyGolden)
        << "threads " << threads << std::hex << " " << applied;
  }
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

TEST_F(FastTest, UnusablePreconditionerFactorLeavesPlainGmres) {
  // Every sparse pivot fails and no dense rung is allowed, so the
  // preconditioner factor's recovery ladder is exhausted. GMRES then runs
  // unpreconditioned and, on this small aligned loop, still reaches Dense.
  const geom::Layout l = geom::refine(aligned_loop_layout(), um(40));
  loop::MqsOptions opts = fft_options();
  opts.fast.dense_fallback_limit = 0;
  loop::MqsSolver dense(l.segments(), l.vias(), l.tech(), {});
  loop::MqsSolver fft(l.segments(), l.vias(), l.tech(), opts);
  for (loop::MqsSolver* s : {&dense, &fft}) {
    const auto pf = s->node_at({um(200), 0}, 6);
    const auto mf = s->node_at({um(200), um(8)}, 6);
    s->short_nodes(*pf, *mf);
  }
  const auto plus = fft.node_at({0, 0}, 6);
  const auto minus = fft.node_at({0, um(8)}, 6);
  const auto zd = dense.port_impedance(*plus, *minus, 1e9);
  auto& metrics = runtime::MetricsRegistry::instance();
  metrics.reset();
  const auto zp = fft.port_impedance(*plus, *minus, 1e9);
  const auto preconditioned =
      metrics.counter("solve.gmres.iterations").value.load();

  metrics.reset();
  robust::fault::configure("sparse_lu_pivot@*");
  const auto zf = fft.port_impedance(*plus, *minus, 1e9);
  robust::fault::clear();
  EXPECT_GT(metrics.counter("robust.action.gmin").value.load(), 0);
  EXPECT_GT(metrics.counter("solve.gmres.iterations").value.load(),
            preconditioned);
  EXPECT_NEAR(zf.inductance, zd.inductance, 1e-6 * zd.inductance);
  EXPECT_NEAR(zf.resistance, zp.resistance, 1e-6 * zp.resistance);
}

TEST_F(FastTest, WorkBudgetTripsAtAnyThreadCount) {
  // The trip *decision* is the deterministic part of the budget contract
  // (the in-flight unit total at the trip is not — chunks already running
  // on other threads still charge). A budget far below the kernel-table
  // build cost must trip the construction at every thread count.
  const geom::Layout l = geom::refine(aligned_loop_layout(), um(20));
  for (const unsigned threads : {1u, 4u}) {
    runtime::set_global_threads(threads);
    govern::RunBudget budget;
    budget.work_units = 50;
    govern::Run run(budget);
    const govern::RunScope scope(run);
    EXPECT_THROW(
        loop::MqsSolver(l.segments(), l.vias(), l.tech(), fft_options()),
        govern::CancelledError)
        << "threads=" << threads;
    EXPECT_EQ(run.cancel_kind(), govern::BudgetKind::Work);
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
    govern::RunBudget budget;
    budget.work_units = 2;  // below one iteration's charge: trips at once
    govern::Run run(budget);
    const govern::RunScope scope(run);
    CVector x(n, Complex{});
    std::uint64_t trip_units = 0;
    try {
      la::gmres(apply, b, x);
    } catch (const govern::CancelledError&) {
      trip_units = run.work_units();
    }
    return trip_units;
  };
  const std::uint64_t first = units_of_run();
  EXPECT_GT(first, 2u);
  EXPECT_EQ(first, units_of_run());
}

}  // namespace
