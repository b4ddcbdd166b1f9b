// Cache-blocked BLAS3-style micro-kernels for the dense layer.
//
// These are the building blocks of the blocked right-looking LU and the
// blocked Cholesky panels: a rank-kb GEMM update and a unit-lower TRSM,
// written as portable auto-vectorizable loops (contiguous row-major inner
// j loop, no intrinsics, no FMA contraction dependence) rather than calls
// into an external BLAS.
//
// Determinism / bitwise contract. Every kernel applies its updates to each
// output element C(i, j) as a sequence of individual `c -= a * b`
// subtractions in ascending k (resp. ascending m) order. That is exactly the
// order in which the classic unblocked right-looking elimination touches the
// element, so a blocked factorisation built from these kernels is
// bitwise-identical to the unblocked loop — and, since parallel callers give
// each chunk a disjoint row/column range, bitwise-identical at any
// IND_THREADS. The k-unrolling below fuses 8 consecutive pivot updates of an
// element into one load/compute/store chain; each fused chain still applies
// the same rounded `c - a*b` subtractions in the same ascending-k order, so
// the values are unchanged. This relies on the build not enabling FMA
// contraction (see the top-level CMakeLists: -mno-fma on purpose).
//
// Shape note: the j loop is innermost and contiguous on B rows and the C row.
// That is deliberately NOT a fixed-size register tile — with leading
// dimensions only known at run time, GCC's SLP vectoriser abandons small
// fixed-extent accumulator arrays (everything spills to the stack, measured
// ~4x slower at n = 2048), while a contiguous innermost j loop vectorises
// cleanly regardless of stride. Unrolling k by 8 then cuts the C-row
// load/store traffic 8x, which is what makes the update compute-bound: the
// unrolled body saturates both FP ports of a non-FMA AVX2 core (~4 flops per
// cycle). Unrolling further (12/16) spills the broadcast registers and is
// measurably slower.
#pragma once

#include <algorithm>
#include <cstddef>

namespace ind::la::kernels {

/// Column-strip width for the GEMM update: the 8 active B row strips
/// (kGemmUnrollK x kGemmStrip x 8 bytes = 16 KiB for doubles) plus the C row
/// strip stay L1-resident across the i loop.
inline constexpr std::size_t kGemmStrip = 256;

/// Per-type k-direction unroll: each pass over a C row strip applies this
/// many consecutive pivots, so C is loaded and stored once per that many
/// rank-1 updates. 8 saturates both FP ports for double; complex
/// arithmetic spills the unrolled broadcast registers at 8 and measures
/// faster at 4.
template <typename T>
inline constexpr std::size_t kGemmUnrollK = 4;
template <>
inline constexpr std::size_t kGemmUnrollK<double> = 8;

/// C -= A * B for row-major operands with independent leading dimensions:
/// C is mr x nc (ldc), A is mr x kb (lda), B is kb x nc (ldb).
/// Per-element accumulation order: for each (i, j), k ascends 0..kb-1.
template <typename T>
void gemm_minus(std::size_t mr, std::size_t nc, std::size_t kb, const T* a,
                std::size_t lda, const T* b, std::size_t ldb, T* c,
                std::size_t ldc) {
  constexpr std::size_t KU = kGemmUnrollK<T>;
  for (std::size_t j0 = 0; j0 < nc; j0 += kGemmStrip) {
    const std::size_t j1 = std::min(j0 + kGemmStrip, nc);
    for (std::size_t i = 0; i < mr; ++i) {
      const T* ai = a + i * lda;
      T* ci = c + i * ldc;
      std::size_t k = 0;
      for (; k + KU <= kb; k += KU) {
        T x[KU];
        const T* bp[KU];
        for (std::size_t u = 0; u < KU; ++u) {
          x[u] = ai[k + u];
          bp[u] = b + (k + u) * ldb;
        }
        for (std::size_t j = j0; j < j1; ++j) {
          T s = ci[j];
          for (std::size_t u = 0; u < KU; ++u) s -= x[u] * bp[u][j];
          ci[j] = s;
        }
      }
      for (; k < kb; ++k) {
        const T aik = ai[k];
        const T* bk = b + k * ldb;
        for (std::size_t j = j0; j < j1; ++j) ci[j] -= aik * bk[j];
      }
    }
  }
}

/// In-place forward substitution with a unit-lower triangular block:
/// C <- L^-1 C where L is the kb x kb unit-lower block at `l` (ldl) and C is
/// kb x nc (ldc). Row k of the result accumulates -= L(k, m) * C(m, :) in
/// ascending m < k — the same per-element order as unblocked elimination
/// applying pivot steps m = 0..k-1 to a row of the trailing matrix.
template <typename T>
void trsm_lower_unit_minus(std::size_t kb, std::size_t nc, const T* l,
                           std::size_t ldl, T* c, std::size_t ldc) {
  for (std::size_t k = 1; k < kb; ++k) {
    const T* lk = l + k * ldl;
    T* ck = c + k * ldc;
    for (std::size_t m = 0; m < k; ++m) {
      const T lkm = lk[m];
      const T* cm = c + m * ldc;
      for (std::size_t j = 0; j < nc; ++j) ck[j] -= lkm * cm[j];
    }
  }
}

}  // namespace ind::la::kernels
