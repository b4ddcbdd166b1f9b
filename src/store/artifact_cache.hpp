// On-disk content-addressed artifact cache.
//
// Off by default: the cache activates only when IND_CACHE_DIR names a
// directory (created on demand), so tier-1 behaviour is unchanged unless a
// user opts in. Artifacts are keyed purely by content fingerprint — nothing
// thread- or time-dependent enters the key — so any process, at any
// IND_THREADS setting, addressing the same layout + options reads the same
// bytes and reproduces bitwise-identical results.
//
//   file name     <kind>-<32-hex-fingerprint>.art
//   writes        temp file + atomic rename (write_artifact)
//   size cap      IND_CACHE_MAX_BYTES (default 1 GiB); least-recently-used
//                 artifacts (by mtime, refreshed on hit) are evicted after
//                 each store
//   validation    load() alone: the fingerprint echo, the kind and the
//                 checksum. Any StoreError is counted (store.corrupt.<code>),
//                 the bad file is removed, and the caller recomputes; the
//                 fallback is surfaced through robust::SolveReport as an
//                 ArtifactRecompute recovery action, never a crash
//   fault site    IND_FAULT_INJECT=store_read@N forces the corruption path
//   torn writes   configure() lists the directory, reads no artifact bytes,
//                 and removes each `.tmp<pid>` whose writer is gone
//                 (store.torn_removed); IND_FAULT_INJECT=store_write@N
//                 leaves a torn .tmp behind exactly like a kill -9
//                 mid-commit
//
// Metrics: store.hits / store.misses / store.corrupt[.*] / store.evictions /
// store.evicted_bytes counters, store.read_bytes / store.hit_bytes (file
// bytes read, and those of hits) and store.{serialize,deserialize,read,write}
// timers, all published into BENCH_*.json via the MetricsRegistry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "govern/budget.hpp"
#include "robust/diagnostics.hpp"
#include "runtime/metrics.hpp"
#include "store/format.hpp"

namespace ind::store {

class ArtifactCache {
 public:
  /// Process-wide cache configured from the environment on first use.
  static ArtifactCache& instance();

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }
  std::uint64_t max_bytes() const { return max_bytes_; }

  /// Cache lookup. Returns the artifact on a hit; std::nullopt on a miss.
  /// A corrupt or unreadable file is treated as a miss: the file is deleted,
  /// store.corrupt.* is counted, and when `report` is non-null the fallback
  /// is logged there as an ArtifactRecompute recovery action.
  std::optional<Artifact> load(const std::string& kind, const Digest& fp,
                               robust::SolveReport* report = nullptr);

  /// Stores the artifact under its kind + fingerprint (atomic write-rename),
  /// then enforces the LRU size cap. I/O failures are counted
  /// (store.save_failures) and swallowed — a broken cache directory must
  /// never take the computation down.
  void save(const Artifact& a);

  /// Path an artifact would live at (exposed for tests and tooling).
  std::string path_for(const std::string& kind, const Digest& fp) const;

  /// Test hooks: reconfigure at runtime. An empty dir disables the cache.
  /// Removes the torn temp files of dead writers (see the file comment); a
  /// temp file of a live process, e.g. a sibling worker sharing the
  /// directory, is left to its writer.
  void configure(std::string dir, std::uint64_t max_bytes = kDefaultMaxBytes);

  static constexpr std::uint64_t kDefaultMaxBytes = 1ULL << 30;  // 1 GiB
  /// IND_CACHE_MAX_BYTES outside [1 MiB, 1 TiB] is a misconfiguration, not a
  /// request: a sub-MiB cap evicts every artifact as it lands, a multi-TiB
  /// cap is almost certainly a units mistake. Values clamp with a warning.
  static constexpr std::uint64_t kMinConfigBytes = 1ULL << 20;  // 1 MiB
  static constexpr std::uint64_t kMaxConfigBytes = 1ULL << 40;  // 1 TiB

 private:
  ArtifactCache();
  void evict_to_cap(const std::string& keep_path);

  std::string dir_;
  std::uint64_t max_bytes_ = kDefaultMaxBytes;
};

/// The load-or-compute skeleton every cache-aware wrapper shares. With the
/// cache disabled it is exactly compute(): no fingerprint, no cancel check.
/// Otherwise a hit decodes the stored value with `get_fn`; a miss computes,
/// encodes with `put_fn` and stores it. Both codecs run under the
/// store.(de)serialize timers so cache overhead is visible in BENCH json.
template <typename T, typename Fingerprint, typename Compute, typename Put,
          typename Get>
T cached(const char* kind, Fingerprint fingerprint, Compute compute,
         Put put_fn, Get get_fn) {
  ArtifactCache& cache = ArtifactCache::instance();
  if (!cache.enabled()) return compute();
  // An already-cancelled run must not start a compute just to populate the
  // cache; the degradation ladder handles the throw.
  govern::throw_if_cancelled(kind);
  const Digest fp = fingerprint();
  robust::SolveReport report;
  if (auto artifact = cache.load(kind, fp, &report)) {
    runtime::ScopedTimer t("store.deserialize");
    T value;
    ByteReader r(artifact->payload);
    get_fn(r, value);
    if (!report.actions.empty()) report.record("store");
    return value;
  }
  T value = compute();
  // A compute that ran to completion under a fired token may still be
  // partial (a parallel stage skipped chunks): never persist it.
  if (const govern::Run* run = govern::current_run(); run && run->cancelled()) {
    runtime::MetricsRegistry::instance().add_count("store.save_skipped", 1);
    return value;
  }
  ByteWriter w;
  {
    runtime::ScopedTimer t("store.serialize");
    put_fn(w, value);
  }
  cache.save(Artifact{kind, fp, w.take()});
  if (!report.actions.empty()) report.record("store");
  return value;
}

}  // namespace ind::store
