// In-house mixed-radix complex FFT: 1-D plans and the batched 3-D transform
// the Toeplitz operator is built on.
//
// The circulant embedding of the partial-inductance kernel (toeplitz_op.hpp)
// needs forward/inverse 3-D DFTs of modest, highly composite sizes. Rather
// than pull in an external dependency, FftPlan implements Cooley-Tukey over
// the prime factorisation of n: radix-2/3/5 cover every size good_fft_size()
// produces, and a direct-DFT combine step handles arbitrary prime radices so
// *any* n is valid (the voxel grids themselves need not be padded to powers
// of two).
//
// Flat replay of the recursion: the textbook form recurses on the r
// decimated sub-sequences of each radix (ascending primes, top level first)
// and combines the sub-DFTs on the way back up. FftPlan performs the same
// arithmetic without recursing: the constructor builds the mixed-radix
// digit-reversal table (where each leaf of the recursion lands), a transform
// copies the input through it and then runs one combine pass per radix from
// the deepest level up. Each combine reads the same twiddle-table entries
// (the inverse reads a precomputed conjugate table) and accumulates in the
// same order, acc = y0; acc += w·y_q, so the output is bitwise the
// recursion's — tests/test_fast.cpp keeps the recursion as its oracle.
//
// Support-pruned 3-D passes: fft_3d(plans, support, ...) skips every line
// whose result does not matter. A forward pass skips lines that are still
// all zero (an untransformed axis index outside the support); an inverse
// pass skips lines whose outputs no later pass reads and no caller gathers
// (an already-transformed axis index outside the support). The pass order is
// the full transform's, so every value the caller reads is bitwise the full
// transform's; skipped slots keep whatever they held. The Toeplitz operator
// holds each block's three plans and its support, built once.
//
// Determinism: a single transform is strictly serial. fft_3d runs one
// batched line pass per axis and parallelises over *whole lines* with
// runtime::parallel_for — each line of the 3-D tensor is read and written by
// exactly one chunk, so results are bitwise-identical to the serial loop at
// any thread count (the runtime's chunking contract). Work is charged to the
// governor per chunk with a unit count that is a pure function of the shape,
// the support and the chunk's line range.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "la/dense_matrix.hpp"

namespace ind::fast {

/// Smallest 5-smooth integer >= n (FFT-friendly padded size).
std::size_t good_fft_size(std::size_t n);

/// Reusable transform plan for one length: prime factorisation, the
/// digit-reversal table and the length-n twiddle tables. Plans are immutable
/// after construction and safe to share across threads.
class FftPlan {
 public:
  FftPlan() : FftPlan(1) {}
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// Out-of-place transform of one length-n line whose elements sit
  /// `in_stride` apart: out[k] = sum_j in[j*in_stride] w^jk with
  /// w = exp(-2*pi*i/n) forward, exp(+2*pi*i/n) inverse. The inverse is
  /// *unscaled* (apply 1/n yourself). `in` and `out` must not alias. Does
  /// not allocate unless a prime factor exceeds 64 (good_fft_size never
  /// produces one).
  void transform(const la::Complex* in, la::Complex* out, bool inverse,
                 std::size_t in_stride = 1) const;

 private:
  std::size_t n_ = 1;
  std::vector<std::size_t> radices_;     // prime factors, ascending
  std::vector<std::size_t> leaf_input_;  // out slot -> input index
  std::vector<la::Complex> twiddles_;    // w^t, t in [0, n), forward sign
  std::vector<la::Complex> twiddles_conj_;  // conj(w^t), for the inverse
};

/// Per-axis support of a 3-D tensor: support[a] lists, ascending and
/// without repeats, the indices along axis a that the caller uses — where
/// the forward input may be non-zero, and where the inverse output is read.
using FftSupport = std::array<std::vector<std::size_t>, 3>;

/// Support-pruned in-place 3-D transform of a row-major tensor of shape
/// {plans[0].size(), plans[1].size(), plans[2].size()} (axis 2
/// fastest-varying); data.size() must equal the product. One batched 1-D
/// line pass per axis (n2, then n1, then n0), skipping the lines described
/// in the header comment. The forward input must be zero outside
/// support[0] x support[1] x support[2]; its output equals the full
/// transform's everywhere (a skipped all-zero line keeps +0 where the full
/// transform may produce -0). The inverse output is bitwise the full
/// inverse's on that product set (scaled by 1/(n0*n1*n2)) and unspecified
/// elsewhere. Timed under "fast.fft"; adds the lines it transformed to the
/// "fast.fft_lines" counter.
void fft_3d(const std::array<FftPlan, 3>& plans, const FftSupport& support,
            std::vector<la::Complex>& data, bool inverse);

/// Full 3-D transform: every line of every axis (support = everything).
void fft_3d(const std::array<std::size_t, 3>& shape,
            std::vector<la::Complex>& data, bool inverse);

}  // namespace ind::fast
