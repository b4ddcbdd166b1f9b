#include "fast/fft.hpp"

#include <cmath>
#include <stdexcept>

#include "govern/budget.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"

namespace ind::fast {
namespace {

// Work units per transformed line (pure function of the line length — part
// of the govern bitwise-reproducibility contract).
std::uint64_t line_units(std::size_t n) { return 1 + n / 256; }

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
  for (std::size_t f : radices_) max_radix_ = std::max(max_radix_, f);
  twiddles_.resize(n);
  const double step = -2.0 * M_PI / static_cast<double>(n);
  for (std::size_t t = 0; t < n; ++t)
    twiddles_[t] = std::polar(1.0, step * static_cast<double>(t));
}

void FftPlan::recurse(const la::Complex* in, std::size_t in_stride,
                      la::Complex* out, std::size_t n, std::size_t depth,
                      std::size_t root_stride, bool inverse,
                      la::Complex* radix_buf) const {
  if (n == 1) {
    out[0] = in[0];
    return;
  }
  const std::size_t r = radices_[depth];
  const std::size_t m = n / r;
  for (std::size_t q = 0; q < r; ++q)
    recurse(in + q * in_stride, in_stride * r, out + q * m, m, depth + 1,
            root_stride * r, inverse, radix_buf);
  // Combine the r sub-DFTs: X[k] = sum_q w_n^{qk} Y_q[k mod m]. Twiddles for
  // the local size n live at stride root_stride in the global table
  // (w_n = w_N^{N/n}); the inverse transform conjugates them.
  if (r == 2) {
    for (std::size_t k2 = 0; k2 < m; ++k2) {
      la::Complex w = twiddles_[k2 * root_stride];
      if (inverse) w = std::conj(w);
      const la::Complex a = out[k2];
      const la::Complex wb = w * out[m + k2];
      out[k2] = a + wb;
      out[m + k2] = a - wb;
    }
    return;
  }
  for (std::size_t k2 = 0; k2 < m; ++k2) {
    for (std::size_t q = 0; q < r; ++q) radix_buf[q] = out[q * m + k2];
    for (std::size_t k1 = 0; k1 < r; ++k1) {
      const std::size_t k = k1 * m + k2;
      la::Complex acc = radix_buf[0];
      for (std::size_t q = 1; q < r; ++q) {
        la::Complex w = twiddles_[((q * k) % n) * root_stride];
        if (inverse) w = std::conj(w);
        acc += w * radix_buf[q];
      }
      out[k] = acc;
    }
  }
}

void FftPlan::transform(const la::Complex* in, la::Complex* out,
                        bool inverse) const {
  std::vector<la::Complex> radix_buf(max_radix_);
  recurse(in, 1, out, n_, 0, 1, inverse, radix_buf.data());
}

namespace {

/// Batched transform over strided lines: line l starts at base_of(l) and its
/// elements sit `stride` apart. Gathers each line into a contiguous buffer,
/// transforms, scatters back (scaled by 1/n on the inverse). Parallel over
/// whole lines, each chunk charged a pure function of its line range.
template <typename BaseFn>
void strided_pass(const FftPlan& plan, la::Complex* data, std::size_t n_lines,
                  std::size_t stride, bool inverse, const BaseFn& base_of) {
  const std::size_t n = plan.size();
  if (n == 1) return;
  runtime::parallel_for(
      n_lines,
      [&](std::size_t begin, std::size_t end) {
        if (govern::checkpoint((end - begin) * line_units(n))) return;
        std::vector<la::Complex> line(n), out(n);
        const double scale = inverse ? 1.0 / static_cast<double>(n) : 1.0;
        for (std::size_t l = begin; l < end; ++l) {
          la::Complex* base = data + base_of(l);
          for (std::size_t j = 0; j < n; ++j) line[j] = base[j * stride];
          plan.transform(line.data(), out.data(), inverse);
          for (std::size_t j = 0; j < n; ++j) base[j * stride] = out[j] * scale;
        }
      },
      {.cancel = govern::Governor::instance().cancel_token()});
  govern::throw_if_cancelled("fast.fft3d");
}

}  // namespace

void fft_3d(const std::array<std::size_t, 3>& shape,
            std::vector<la::Complex>& data, bool inverse) {
  const std::size_t n0 = shape[0], n1 = shape[1], n2 = shape[2];
  if (data.size() != n0 * n1 * n2)
    throw std::invalid_argument("fft_3d: data size does not match shape");
  runtime::ScopedTimer timer("fast.fft");
  if (n2 > 1) {
    const FftPlan plan2(n2);
    strided_pass(plan2, data.data(), n0 * n1, 1, inverse,
                 [n2](std::size_t l) { return l * n2; });
  }
  if (n1 > 1) {
    const FftPlan plan1(n1);
    strided_pass(plan1, data.data(), n0 * n2, n2, inverse,
                 [n1, n2](std::size_t l) {
                   return (l / n2) * n1 * n2 + (l % n2);
                 });
  }
  if (n0 > 1) {
    const FftPlan plan0(n0);
    strided_pass(plan0, data.data(), n1 * n2, n1 * n2, inverse,
                 [](std::size_t l) { return l; });
  }
}

}  // namespace ind::fast
