#include "fast/fft.hpp"

#include <cmath>
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

// Largest radix whose combine buffer lives on the stack.
constexpr std::size_t kStackRadix = 64;

// w·y as (ac − bd, ad + bc), each operation rounded on its own (the build
// disables FMA contraction). For finite operands this is exactly what
// std::complex's operator* returns; it leaves out only operator*'s
// __muldc3 recovery, which runs when both parts come out NaN — that is, for
// infinite operands, by which point the solve has already failed. Without
// that branch the butterflies stay straight-line code.
inline la::Complex mul(const la::Complex& w, const la::Complex& y) {
  return {w.real() * y.real() - w.imag() * y.imag(),
          w.real() * y.imag() + w.imag() * y.real()};
}

// One combine step of the recursion for a sub-DFT of local size n = m·r at
// x: X[k] = sum_q w_n^{qk} Y_q[k mod m], with Y_q = x[q·m, q·m + m). The
// twiddle w_n^{(qk) mod n} is entry ((qk) mod n)·rs = (q·k·rs) mod N of the
// length-N table, where rs = N/n; it is advanced incrementally per q.
// R = 3 and 5 are compile-time butterflies; R = 0 is the generic prime
// radix r, which keeps its inputs in `scratch` (r slots; unused otherwise).
template <std::size_t R>
void combine(la::Complex* x, std::size_t r, std::size_t m, std::size_t rs,
             std::size_t big_n, const la::Complex* tw, la::Complex* scratch) {
  if constexpr (R != 0) r = R;
  la::Complex fixed[R == 0 ? 1 : R];
  la::Complex* y = R == 0 ? scratch : fixed;
  const std::size_t sub = m * rs;  // = N / r
  for (std::size_t k2 = 0; k2 < m; ++k2) {
    for (std::size_t q = 0; q < r; ++q) y[q] = x[q * m + k2];
    for (std::size_t k1 = 0; k1 < r; ++k1) {
      const std::size_t step = k1 * sub + k2 * rs;  // k·rs, k = k1·m + k2
      std::size_t t = 0;
      la::Complex acc = y[0];
      for (std::size_t q = 1; q < r; ++q) {
        t += step;
        if (t >= big_n) t -= big_n;
        acc += mul(tw[t], y[q]);
      }
      x[k1 * m + k2] = acc;
    }
  }
}

// Generic prime radix r: its r inputs per column go to scratch on the
// stack, or on the heap for r > kStackRadix.
void combine_prime(la::Complex* x, std::size_t r, std::size_t m,
                   std::size_t rs, std::size_t big_n, const la::Complex* tw) {
  la::Complex stack_buf[kStackRadix];
  std::vector<la::Complex> heap_buf(r > kStackRadix ? r : 0);
  combine<0>(x, r, m, rs, big_n, tw,
             heap_buf.empty() ? stack_buf : heap_buf.data());
}

// The recursion's radix-2 butterfly: (a + w·b, a − w·b).
void combine2(la::Complex* x, std::size_t m, std::size_t rs,
              const la::Complex* tw) {
  for (std::size_t k2 = 0; k2 < m; ++k2) {
    const la::Complex a = x[k2];
    const la::Complex wb = mul(tw[k2 * rs], x[m + k2]);
    x[k2] = a + wb;
    x[m + k2] = a - wb;
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

void FftPlan::transform(const la::Complex* in, la::Complex* out, bool inverse,
                        std::size_t in_stride) const {
  for (std::size_t p = 0; p < n_; ++p) out[p] = in[leaf_input_[p] * in_stride];
  const la::Complex* tw = inverse ? twiddles_conj_.data() : twiddles_.data();
  // Depth d combines n / rs sub-DFTs of local size n_d = n / rs into one,
  // rs = r_0 ... r_{d-1}; deepest level first, as the recursion unwinds.
  std::size_t rs = n_;
  for (std::size_t d = radices_.size(); d-- > 0;) {
    const std::size_t r = radices_[d];
    rs /= r;
    const std::size_t local = n_ / rs, m = local / r;
    for (std::size_t b = 0; b < rs; ++b) {
      la::Complex* x = out + b * local;
      switch (r) {
        case 2: combine2(x, m, rs, tw); break;
        case 3: combine<3>(x, r, m, rs, n_, tw, nullptr); break;
        case 5: combine<5>(x, r, m, rs, n_, tw, nullptr); break;
        default: combine_prime(x, r, m, rs, n_, tw); break;
      }
    }
  }
}

namespace {

/// Batched transform of the lines of one axis: element j of line
/// (outer[i], inner[k]) sits at outer[i]·outer_stride + inner[k]·inner_stride
/// + j·stride. Transforms each line out of place, scatters it back (scaled
/// by 1/n on the inverse). Parallel over whole lines, each chunk charged a
/// pure function of its line count. Returns the number of lines.
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
        std::vector<la::Complex> out(n);
        const double scale = inverse ? 1.0 / static_cast<double>(n) : 1.0;
        for (std::size_t l = begin; l < end; ++l) {
          la::Complex* base = data + outer[l / inner.size()] * outer_stride +
                              inner[l % inner.size()] * inner_stride;
          plan.transform(base, out.data(), inverse, stride);
          for (std::size_t j = 0; j < n; ++j) base[j * stride] = out[j] * scale;
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
