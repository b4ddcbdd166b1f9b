// In-house mixed-radix complex FFT: 1-D plans and the batched 3-D transform
// the Toeplitz operator is built on.
//
// The circulant embedding of the partial-inductance kernel (toeplitz_op.hpp)
// needs forward/inverse 3-D DFTs of modest, highly composite sizes. Rather
// than pull in an external dependency, FftPlan implements the classic
// recursive Cooley-Tukey decomposition over the prime factorisation of n:
// radix-2/3/5 cover every size good_fft_size() produces, and a direct-DFT
// combine step handles arbitrary prime radices so *any* n is valid (the
// voxel grids themselves need not be padded to powers of two).
//
// Determinism: a single transform is strictly serial. fft_3d runs one
// batched line pass per axis and parallelises over *whole lines* with
// runtime::parallel_for — each line of the 3-D tensor is read and written by
// exactly one chunk, so results are bitwise-identical to the serial loop at
// any thread count (the runtime's chunking contract). Work is charged to the
// governor per chunk with a unit count that is a pure function of the
// chunk's line range.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "la/dense_matrix.hpp"

namespace ind::fast {

/// Smallest 5-smooth integer >= n (FFT-friendly padded size).
std::size_t good_fft_size(std::size_t n);

/// Reusable transform plan for one length: prime factorisation plus the
/// length-n twiddle table. Plans are immutable after construction and safe
/// to share across threads.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }
  std::size_t max_radix() const { return max_radix_; }

  /// Out-of-place transform of one length-n line: out[k] = sum_j in[j] w^jk
  /// with w = exp(-2*pi*i/n) forward, exp(+2*pi*i/n) inverse. The inverse is
  /// *unscaled* (apply 1/n yourself). `in` and `out` must not alias.
  void transform(const la::Complex* in, la::Complex* out, bool inverse) const;

 private:
  void recurse(const la::Complex* in, std::size_t in_stride, la::Complex* out,
               std::size_t n, std::size_t depth, std::size_t root_stride,
               bool inverse, la::Complex* radix_buf) const;

  std::size_t n_ = 1;
  std::size_t max_radix_ = 1;
  std::vector<std::size_t> radices_;    // prime factors, ascending
  std::vector<la::Complex> twiddles_;   // w^t, t in [0, n), forward sign
};

/// In-place 3-D transform of a row-major tensor with shape {n0, n1, n2}
/// (n2 fastest-varying); data.size() must equal n0*n1*n2. Performs one
/// batched 1-D line pass per axis (n2, then n1, then n0), gathering each
/// line into a contiguous buffer. Inverse scales by 1/(n0*n1*n2). Timed
/// under "fast.fft".
void fft_3d(const std::array<std::size_t, 3>& shape,
            std::vector<la::Complex>& data, bool inverse);

}  // namespace ind::fast
