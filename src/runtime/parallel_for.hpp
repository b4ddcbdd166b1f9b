// Chunked parallel loops with a determinism contract.
//
// parallel_for splits an index range into fixed chunks and runs the chunks
// on the process-wide ThreadPool (or an explicit one). Chunk *boundaries*
// are a pure function of (n, grain, worker count); chunk *assignment* to
// workers is dynamic. A body that writes only elements of its own chunk
// range therefore produces results bitwise-identical to the serial loop at
// any thread count — this is how the extraction and solver hot paths stay
// deterministic (see DESIGN.md, "Parallel runtime").
//
// parallel_reduce combines per-chunk partials in ascending chunk order on
// the calling thread. With an explicit `grain`, chunk boundaries depend only
// on (n, grain), so the reduction is reproducible across thread counts even
// for non-associative combines (floating-point sums).
//
// Exceptions thrown by a body are captured and rethrown on the calling
// thread after all chunks finish. Calls from inside a pool worker (nested
// parallelism) run inline serially — same results, no deadlock.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "runtime/cancel.hpp"
#include "runtime/thread_pool.hpp"

namespace ind::runtime {

struct ParallelOptions {
  /// Minimum elements per chunk. Ranges of at most `grain` elements (or
  /// whenever only one chunk results) run inline on the calling thread.
  std::size_t grain = 1;
  /// Pool to execute on; nullptr selects the process-wide global_pool().
  ThreadPool* pool = nullptr;
  /// Force chunk boundaries to depend only on (n, grain), not on the worker
  /// count. parallel_reduce sets this so non-associative reductions are
  /// reproducible across thread counts.
  bool chunks_by_grain_only = false;
  /// Optional cooperative-cancellation token. When set and the token fires,
  /// remaining chunks are skipped (in-flight chunks finish) and the loop
  /// returns early — the partial result is then incomplete, so only call
  /// sites that check the token afterwards and discard the work may pass
  /// one. nullptr (the default) preserves run-to-completion semantics.
  CancelToken* cancel = nullptr;
};

/// Opaque per-thread slot for the layer above (govern keeps the thread's run
/// here). run_chunks copies the submitter's value onto each pool thread that
/// helps with the batch and clears it after, so chunks see their submitter's.
void* thread_context();
void set_thread_context(void* context);

/// Calls body(begin, end) over disjoint subranges covering [0, n).
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  const ParallelOptions& opts = {});

namespace detail {

/// Number of chunks for an n-element range (pure function of its inputs).
std::size_t chunk_count(std::size_t n, const ParallelOptions& opts);

/// Runs body(chunk_index) for chunk_index in [0, n_chunks) on the pool,
/// caller participating; rethrows the first captured exception. When
/// opts.cancel fires, chunks not yet started are skipped.
void run_chunks(std::size_t n_chunks,
                const std::function<void(std::size_t)>& body,
                const ParallelOptions& opts);

inline std::size_t chunk_begin(std::size_t chunk, std::size_t n_chunks,
                               std::size_t n) {
  return chunk * n / n_chunks;
}

}  // namespace detail

/// Deterministic chunked reduction: `map(begin, end)` produces one partial
/// per chunk; partials are folded with `combine(acc, partial)` in ascending
/// chunk order starting from `init`. Pass an explicit `grain` to pin chunk
/// boundaries independently of the worker count (bit-reproducible sums).
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::size_t n, T init, MapFn&& map, CombineFn&& combine,
                  ParallelOptions opts = {}) {
  if (n == 0) return init;
  opts.chunks_by_grain_only = true;
  const std::size_t chunks = detail::chunk_count(n, opts);
  std::vector<std::optional<T>> partials(chunks);
  detail::run_chunks(
      chunks,
      [&](std::size_t c) {
        partials[c] = map(detail::chunk_begin(c, chunks, n),
                          detail::chunk_begin(c + 1, chunks, n));
      },
      opts);
  T acc = std::move(init);
  // Chunks skipped by a fired cancel token leave their optional empty; the
  // cancelled partial reduction is discarded by the caller anyway.
  for (auto& p : partials)
    if (p.has_value()) acc = combine(std::move(acc), std::move(*p));
  return acc;
}

}  // namespace ind::runtime
