#include "runtime/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace ind::runtime {
namespace detail {
namespace {

ThreadPool& resolve_pool(ThreadPool* pool) {
  return pool != nullptr ? *pool : global_pool();
}

// Completion state shared with helper tasks. Heap-allocated (shared_ptr) so
// a helper finishing after the caller has returned from run_chunks can never
// touch a dead stack frame.
struct BatchState {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t alive = 0;
  std::exception_ptr error;
};

}  // namespace

std::size_t chunk_count(std::size_t n, const ParallelOptions& opts) {
  if (n == 0) return 0;
  const std::size_t grain = std::max<std::size_t>(opts.grain, 1);
  const std::size_t by_grain = (n + grain - 1) / grain;
  if (opts.chunks_by_grain_only) return by_grain;
  // Over-decompose 4x relative to the worker count: chunk boundaries stay
  // fixed while dynamic chunk assignment absorbs load skew (e.g. the
  // triangular pair loop in partial-inductance assembly).
  const std::size_t workers = resolve_pool(opts.pool).size();
  return std::clamp<std::size_t>(by_grain, 1, workers * 4);
}

void run_chunks(std::size_t n_chunks,
                const std::function<void(std::size_t)>& body,
                const ParallelOptions& opts) {
  if (n_chunks == 0) return;
  CancelToken* const cancel = opts.cancel;
  ThreadPool& pool = resolve_pool(opts.pool);
  if (n_chunks == 1 || pool.size() <= 1 || ThreadPool::on_worker_thread()) {
    for (std::size_t c = 0; c < n_chunks; ++c) {
      if (cancel != nullptr && cancel->cancelled()) return;
      body(c);
    }
    return;
  }

  auto state = std::make_shared<BatchState>();
  const std::size_t n_helpers =
      std::min<std::size_t>(pool.size(), n_chunks - 1);
  state->alive = n_helpers;

  auto drain = [&body, n_chunks, cancel](BatchState& st) {
    for (;;) {
      // A fired token stops this worker before it claims another chunk;
      // chunks already in flight on other workers run to completion, so
      // every chunk either fully ran or never started.
      if (cancel != nullptr && cancel->cancelled()) return;
      const std::size_t c = st.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= n_chunks) return;
      try {
        body(c);
      } catch (...) {
        std::scoped_lock lock(st.mutex);
        if (!st.error) st.error = std::current_exception();
      }
    }
  };

  for (std::size_t i = 0; i < n_helpers; ++i)
    pool.submit([state, drain] {
      drain(*state);
      std::scoped_lock lock(state->mutex);
      if (--state->alive == 0) state->cv.notify_all();
    });

  drain(*state);  // the calling thread works too
  std::unique_lock lock(state->mutex);
  state->cv.wait(lock, [&] { return state->alive == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace detail

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  const ParallelOptions& opts) {
  if (n == 0) return;
  if (opts.cancel != nullptr && opts.cancel->cancelled()) return;
  const std::size_t chunks = detail::chunk_count(n, opts);
  if (chunks <= 1 || ThreadPool::on_worker_thread()) {
    body(0, n);
    return;
  }
  detail::run_chunks(
      chunks,
      [&](std::size_t c) {
        body(detail::chunk_begin(c, chunks, n),
             detail::chunk_begin(c + 1, chunks, n));
      },
      opts);
}

}  // namespace ind::runtime
