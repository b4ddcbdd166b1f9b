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
// Four lines per kernel call: transform_lines holds up to kLanes lines as
// structure-of-arrays lanes (the real parts of slot p of all four lines in
// one vector, the imaginary parts in another) and runs the leaf copy, every
// combine and the output scaling on all of them at once. Each lane performs
// its own line's scalar operation sequence: the same leaf, the same twiddle
// entries, a ± w·b for radix 2 and acc = y0; acc += w·y_q otherwise, each
// product and sum rounded on its own (the build disables FMA contraction),
// and the same × 1/n on the inverse. So every lane's bits are the
// one-line transform's, whichever lines share the call; a partial batch
// carries zeros in its unused lanes and writes back only its live ones.
// On a strided pass over consecutive lines (the n0 pass of the Toeplitz
// operator's forward transform) the four lines of a batch are adjacent, so
// one element of all four is one 64-byte cache line instead of four.
// Each parallel chunk of a line pass keeps one lane workspace (2·(n + r)
// vectors of four doubles, r the largest radix) for all its batches.
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
// exactly one chunk, and a batch never spans two chunks, so results are
// bitwise-identical to the serial loop at any thread count (the runtime's
// chunking contract), wherever the chunk boundaries fall. Work is charged to
// the governor per chunk with a unit count that is a pure function of the
// shape, the support and the chunk's line range.
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

  /// Lines one kernel call transforms side by side.
  static constexpr std::size_t kLanes = 4;

  /// The transform kernel: `count` (1..kLanes) lines at once, each in its
  /// own lane. Line b reads element j at in[b][j * in_stride] and writes
  /// out[k] times `scale` to out[b][k * out_stride], with out[k] = sum_j
  /// in[j] w^jk, w = exp(-2*pi*i/n) forward, exp(+2*pi*i/n) inverse. `in`
  /// may equal `out` (in place): every element is read before any is
  /// written. `work` is the caller's scratch, grown to the plan's lanes on
  /// first use; keep one per thread.
  void transform_lines(const la::Complex* const in[], std::size_t in_stride,
                       la::Complex* const out[], std::size_t out_stride,
                       std::size_t count, bool inverse, double scale,
                       std::vector<double>& work) const;

  /// One line through the same kernel, out of place and *unscaled* (apply
  /// 1/n to the inverse yourself): the oracle-facing form of the plan.
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
