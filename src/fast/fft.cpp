#include "fast/fft.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "govern/budget.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"

namespace ind::fast {
namespace {

// Work units per transformed line (pure function of the line length — part
// of the govern bitwise-reproducibility contract).
std::uint64_t line_units(std::size_t n) { return 1 + n / 256; }

// One double per line of a batch: lane b of every value below belongs to
// line b. GCC's vector extension, so each operation is one AVX2 instruction
// over all four lines (two SSE2 ones without AVX2) and no loop shape is left
// for the vectoriser to guess. Lane-wise +, − and × round exactly as the
// scalar std::complex expression on that line would, and the build disables
// FMA contraction, so every lane carries its line's scalar bits.
typedef double Lane __attribute__((vector_size(FftPlan::kLanes *
                                               sizeof(double))));

// One level of the recursion: rs sub-DFTs of local size n = m·r, the b-th
// at (re, im) + b·n, each combined as X[k] = sum_q w_n^{qk} Y_q[k mod m],
// with Y_q = x[q·m, q·m + m). The twiddle w_n^{(qk) mod n} is entry
// ((qk) mod n)·rs = (q·k·rs) mod N of the length-N table, where rs = N/n;
// it is advanced incrementally per q. Each term is w·y as (ac − bd,
// ad + bc), accumulated as acc = y0; acc += w·y_q — std::complex's
// operator* and += for finite operands (it leaves out only operator*'s
// __muldc3 recovery, which runs when both parts come out NaN, that is for
// infinite operands, by which point the solve has already failed). R = 3
// and 5 are compile-time butterflies; R = 0 is the generic prime radix r,
// which keeps its inputs in (yr, yi) (r lanes each; unused otherwise).
template <std::size_t R>
void combine(Lane* re, Lane* im, std::size_t r, std::size_t m, std::size_t rs,
             std::size_t big_n, const la::Complex* tw, Lane* yr, Lane* yi) {
  Lane fixed_r[R == 0 ? 1 : R], fixed_i[R == 0 ? 1 : R];
  if constexpr (R != 0) {
    r = R;
    yr = fixed_r;
    yi = fixed_i;
  }
  const std::size_t sub = m * rs;  // = N / r
  for (std::size_t b = 0; b < rs; ++b) {
    Lane* xr = re + b * m * r;
    Lane* xi = im + b * m * r;
    for (std::size_t k2 = 0; k2 < m; ++k2) {
      for (std::size_t q = 0; q < r; ++q) {
        yr[q] = xr[q * m + k2];
        yi[q] = xi[q * m + k2];
      }
      for (std::size_t k1 = 0; k1 < r; ++k1) {
        const std::size_t step = k1 * sub + k2 * rs;  // k·rs, k = k1·m + k2
        std::size_t t = 0;
        Lane acc_r = yr[0], acc_i = yi[0];
        for (std::size_t q = 1; q < r; ++q) {
          t += step;
          if (t >= big_n) t -= big_n;
          const double wr = tw[t].real(), wi = tw[t].imag();
          acc_r += wr * yr[q] - wi * yi[q];
          acc_i += wr * yi[q] + wi * yr[q];
        }
        xr[k1 * m + k2] = acc_r;
        xi[k1 * m + k2] = acc_i;
      }
    }
  }
}

// The recursion's radix-2 butterfly over one level: (a + w·b, a − w·b).
void combine2(Lane* re, Lane* im, std::size_t m, std::size_t rs,
              const la::Complex* tw) {
  for (std::size_t b = 0; b < rs; ++b) {
    Lane* xr = re + b * 2 * m;
    Lane* xi = im + b * 2 * m;
    for (std::size_t k2 = 0; k2 < m; ++k2) {
      const double wr = tw[k2 * rs].real(), wi = tw[k2 * rs].imag();
      const Lane ar = xr[k2], ai = xi[k2], br = xr[m + k2], bi = xi[m + k2];
      const Lane wb_r = wr * br - wi * bi, wb_i = wr * bi + wi * br;
      xr[k2] = ar + wb_r;
      xi[k2] = ai + wb_i;
      xr[m + k2] = ar - wb_r;
      xi[m + k2] = ai - wb_i;
    }
  }
}

}  // namespace

std::size_t good_fft_size(std::size_t n) {
  if (n <= 1) return 1;
  for (std::size_t s = n;; ++s) {
    std::size_t r = s;
    for (std::size_t p : {2, 3, 5})
      while (r % p == 0) r /= p;
    if (r == 1) return s;
  }
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (n == 0) throw std::invalid_argument("FftPlan: size must be positive");
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
  twiddles_conj_.resize(n);
  const double step = -2.0 * M_PI / static_cast<double>(n);
  for (std::size_t t = 0; t < n; ++t) {
    twiddles_[t] = std::polar(1.0, step * static_cast<double>(t));
    twiddles_conj_[t] = std::conj(twiddles_[t]);
  }
  // Leaf of the recursion at output slot p: digit q_d of p in the mixed
  // radix with place values m_d = n / (r_0 ... r_d) picked sub-sequence q_d
  // at depth d, whose input stride there is r_0 ... r_{d-1}.
  leaf_input_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    std::size_t rest = p, place = n, in_stride = 1, in = 0;
    for (const std::size_t radix : radices_) {
      place /= radix;
      in += (rest / place) * in_stride;
      rest %= place;
      in_stride *= radix;
    }
    leaf_input_[p] = in;
  }
}

void FftPlan::transform_lines(const la::Complex* const in[],
                              std::size_t in_stride,
                              la::Complex* const out[],
                              std::size_t out_stride, std::size_t count,
                              bool inverse, double scale,
                              std::vector<double>& work) const {
  // Lanes: the batch's real and imaginary parts, n each, then r of each for
  // the generic combine's inputs (r the largest radix); 32-byte aligned.
  const std::size_t r_max = radices_.empty() ? 0 : radices_.back();
  const std::size_t lanes = 2 * (n_ + r_max);
  work.resize((lanes + 1) * kLanes);
  void* at = work.data();
  std::size_t space = work.size() * sizeof(double);
  Lane* re = static_cast<Lane*>(
      std::align(alignof(Lane), lanes * sizeof(Lane), at, space));
  Lane* im = re + n_;
  // Leaf copy: slot p of lane b takes element leaf_input_[p] of line b.
  // Unused lanes carry zeros through the combines and are never stored.
  for (std::size_t p = 0; p < n_; ++p) {
    const std::size_t j = leaf_input_[p] * in_stride;
    if (count == kLanes) {
      re[p] = Lane{in[0][j].real(), in[1][j].real(), in[2][j].real(),
                   in[3][j].real()};
      im[p] = Lane{in[0][j].imag(), in[1][j].imag(), in[2][j].imag(),
                   in[3][j].imag()};
    } else {
      re[p] = im[p] = Lane{};
      for (std::size_t b = 0; b < count; ++b) {
        re[p][b] = in[b][j].real();
        im[p][b] = in[b][j].imag();
      }
    }
  }
  const la::Complex* tw = inverse ? twiddles_conj_.data() : twiddles_.data();
  Lane* yr = im + n_;
  Lane* yi = yr + r_max;
  // Depth d combines rs = r_0 ... r_{d-1} sub-DFTs of local size n / rs;
  // deepest level first, as the recursion unwinds.
  std::size_t rs = n_;
  for (std::size_t d = radices_.size(); d-- > 0;) {
    const std::size_t r = radices_[d];
    rs /= r;
    const std::size_t m = n_ / rs / r;
    switch (r) {
      case 2: combine2(re, im, m, rs, tw); break;
      case 3: combine<3>(re, im, r, m, rs, n_, tw, nullptr, nullptr); break;
      case 5: combine<5>(re, im, r, m, rs, n_, tw, nullptr, nullptr); break;
      default: combine<0>(re, im, r, m, rs, n_, tw, yr, yi); break;
    }
  }
  for (std::size_t p = 0; p < n_; ++p) {
    const Lane r = re[p] * scale, i = im[p] * scale;
    const std::size_t k = p * out_stride;
    if (count == kLanes) {
      out[0][k] = {r[0], i[0]};
      out[1][k] = {r[1], i[1]};
      out[2][k] = {r[2], i[2]};
      out[3][k] = {r[3], i[3]};
    } else {
      for (std::size_t b = 0; b < count; ++b) out[b][k] = {r[b], i[b]};
    }
  }
}

void FftPlan::transform(const la::Complex* in, la::Complex* out, bool inverse,
                        std::size_t in_stride) const {
  std::vector<double> work;
  transform_lines(&in, in_stride, &out, 1, 1, inverse, 1.0, work);
}

namespace {

/// Batched transform of the lines of one axis: element j of line
/// (outer[i], inner[k]) sits at outer[i]·outer_stride + inner[k]·inner_stride
/// + j·stride. Transforms kLanes consecutive lines per kernel call, in place
/// (scaled by 1/n on the inverse). Parallel over whole lines, each chunk
/// charged a pure function of its line count. Returns the number of lines.
std::size_t line_pass(const FftPlan& plan, la::Complex* data,
                      std::size_t stride, const std::vector<std::size_t>& outer,
                      std::size_t outer_stride,
                      const std::vector<std::size_t>& inner,
                      std::size_t inner_stride, bool inverse) {
  const std::size_t n = plan.size();
  const std::size_t n_lines = outer.size() * inner.size();
  if (n == 1 || n_lines == 0) return 0;
  runtime::parallel_for(
      n_lines,
      [&](std::size_t begin, std::size_t end) {
        if (govern::checkpoint((end - begin) * line_units(n))) return;
        std::vector<double> work;
        const double scale = inverse ? 1.0 / static_cast<double>(n) : 1.0;
        la::Complex* lines[FftPlan::kLanes];
        for (std::size_t l = begin; l < end; l += FftPlan::kLanes) {
          const std::size_t count = std::min(FftPlan::kLanes, end - l);
          for (std::size_t b = 0; b < count; ++b)
            lines[b] = data + outer[(l + b) / inner.size()] * outer_stride +
                       inner[(l + b) % inner.size()] * inner_stride;
          plan.transform_lines(lines, stride, lines, stride, count, inverse,
                               scale, work);
        }
      },
      {.cancel = govern::cancel_token()});
  govern::throw_if_cancelled("fast.fft3d");
  return n_lines;
}

FftSupport every_index(const std::array<std::size_t, 3>& shape) {
  FftSupport all;
  for (std::size_t a = 0; a < 3; ++a) {
    all[a].resize(shape[a]);
    std::iota(all[a].begin(), all[a].end(), std::size_t{0});
  }
  return all;
}

}  // namespace

void fft_3d(const std::array<FftPlan, 3>& plans, const FftSupport& support,
            std::vector<la::Complex>& data, bool inverse) {
  const std::size_t n0 = plans[0].size(), n1 = plans[1].size(),
                    n2 = plans[2].size();
  if (data.size() != n0 * n1 * n2)
    throw std::invalid_argument("fft_3d: data size does not match shape");
  runtime::ScopedTimer timer("fast.fft");
  const FftSupport all = every_index({n0, n1, n2});
  // Lines of the pass along `axis` run over index `b` of another axis. A
  // forward pass needs only the support of axes not yet transformed (b <
  // axis: still zero elsewhere); an inverse pass only the support of axes
  // already transformed (b > axis: no later pass reads the rest).
  const auto lines_of = [&](std::size_t axis, std::size_t b)
      -> const std::vector<std::size_t>& {
    return (inverse ? b > axis : b < axis) ? support[b] : all[b];
  };
  std::size_t lines = 0;
  la::Complex* d = data.data();
  lines += line_pass(plans[2], d, 1, lines_of(2, 0), n1 * n2, lines_of(2, 1),
                     n2, inverse);
  lines += line_pass(plans[1], d, n2, lines_of(1, 0), n1 * n2, lines_of(1, 2),
                     1, inverse);
  lines += line_pass(plans[0], d, n1 * n2, lines_of(0, 1), n2, lines_of(0, 2),
                     1, inverse);
  runtime::MetricsRegistry::instance().add_count(
      "fast.fft_lines", static_cast<std::int64_t>(lines));
}

void fft_3d(const std::array<std::size_t, 3>& shape,
            std::vector<la::Complex>& data, bool inverse) {
  const std::array<FftPlan, 3> plans = {FftPlan(shape[0]), FftPlan(shape[1]),
                                        FftPlan(shape[2])};
  fft_3d(plans, every_index(shape), data, inverse);
}

}  // namespace ind::fast
