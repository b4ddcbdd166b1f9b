#include "store/artifact_cache.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <vector>

#include "govern/env.hpp"
#include "robust/fault_injection.hpp"
#include "runtime/metrics.hpp"

namespace ind::store {
namespace fs = std::filesystem;
namespace {

// Serialises directory-level operations (evictions, reconfiguration) within
// the process; cross-process safety comes from atomic renames.
std::mutex g_mutex;

}  // namespace

ArtifactCache& ArtifactCache::instance() {
  static ArtifactCache cache;
  return cache;
}

ArtifactCache::ArtifactCache() {
  const char* dir = std::getenv("IND_CACHE_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const govern::EnvValue cap =
      govern::env_u64("IND_CACHE_MAX_BYTES", kDefaultMaxBytes, kMinConfigBytes,
                      kMaxConfigBytes, "store");
  configure(dir, cap.value);
}

void ArtifactCache::configure(std::string dir, std::uint64_t max_bytes) {
  std::scoped_lock lock(g_mutex);
  dir_ = std::move(dir);
  max_bytes_ = max_bytes;
  if (dir_.empty()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    runtime::MetricsRegistry::instance().add_count("store.dir_failures", 1);
    dir_.clear();  // unusable directory: run with the cache off
    return;
  }
  // A `.tmp<pid>` whose writer is gone is a write torn between open and
  // rename (a kill -9 mid-commit). This process's own temps count as torn:
  // instance() is a function-local static, so no save of this process is
  // in flight while it is first configured. A live writer's temp, e.g. a
  // sibling worker's on the same directory, is left alone. Nothing else is
  // touched here: load() validates each artifact when it is read.
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    const std::string name = de.path().filename().string();
    const std::size_t at = name.rfind(".tmp");
    if (at == std::string::npos) continue;
    const char* first = name.data() + at + 4;
    const char* last = name.data() + name.size();
    pid_t pid = 0;
    const auto [end, err] = std::from_chars(first, last, pid);
    if (err != std::errc() || end != last || pid <= 0) continue;
    if (pid != ::getpid() && (::kill(pid, 0) == 0 || errno != ESRCH)) continue;
    std::error_code rec;
    if (fs::remove(de.path(), rec))
      runtime::MetricsRegistry::instance().add_count("store.torn_removed", 1);
  }
}

std::string ArtifactCache::path_for(const std::string& kind,
                                    const Digest& fp) const {
  return dir_ + "/" + kind + "-" + fp.hex() + ".art";
}

std::optional<Artifact> ArtifactCache::load(const std::string& kind,
                                            const Digest& fp,
                                            robust::SolveReport* report) {
  if (!enabled()) return std::nullopt;
  auto& metrics = runtime::MetricsRegistry::instance();
  const std::string path = path_for(kind, fp);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    metrics.add_count("store.misses", 1);
    return std::nullopt;
  }
  try {
    runtime::ScopedTimer t("store.read");
    std::vector<std::uint8_t> image(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
    if (!in)
      throw StoreError(StoreErrc::IoError, "short read from '" + path + "'");
    metrics.add_count("store.read_bytes",
                      static_cast<std::int64_t>(image.size()));
    Artifact a = decode_artifact(image, &fp);
    if (robust::fault::fire(robust::fault::Site::StoreRead))
      throw StoreError(StoreErrc::ChecksumMismatch,
                       "injected artifact-read fault (" + path + ")");
    if (a.kind != kind)
      throw StoreError(StoreErrc::Malformed, "kind '" + a.kind +
                                                 "' under a '" + kind +
                                                 "' file name");
    metrics.add_count("store.hits", 1);
    metrics.add_count("store.hit_bytes",
                      static_cast<std::int64_t>(image.size()));
    // Refresh recency for LRU eviction.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return a;
  } catch (const StoreError& e) {
    metrics.add_count("store.corrupt", 1);
    metrics.add_count(std::string("store.corrupt.") + to_string(e.code()), 1);
    if (report != nullptr)
      report->add_action(robust::RecoveryKind::ArtifactRecompute, 0, 0.0,
                         std::string(to_string(e.code())) + " reading " + kind +
                             "-" + fp.hex());
    std::error_code ec;
    fs::remove(path, ec);
    metrics.add_count("store.misses", 1);
    return std::nullopt;
  }
}

void ArtifactCache::save(const Artifact& a) {
  if (!enabled()) return;
  auto& metrics = runtime::MetricsRegistry::instance();
  const std::string path = path_for(a.kind, a.fingerprint);
  try {
    write_artifact(path, a);
    metrics.add_count("store.saves", 1);
  } catch (const StoreError&) {
    metrics.add_count("store.save_failures", 1);
    return;
  }
  evict_to_cap(path);
}

void ArtifactCache::evict_to_cap(const std::string& keep_path) {
  std::scoped_lock lock(g_mutex);
  std::error_code ec;
  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    std::uint64_t size;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (ec) return;
    if (!de.is_regular_file(ec) || de.path().extension() != ".art") continue;
    Entry e{de.path(), de.last_write_time(ec),
            static_cast<std::uint64_t>(de.file_size(ec))};
    total += e.size;
    entries.push_back(std::move(e));
  }
  if (total <= max_bytes_) return;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  auto& metrics = runtime::MetricsRegistry::instance();
  for (const Entry& e : entries) {
    if (total <= max_bytes_) break;
    if (e.path == keep_path) continue;  // never evict what was just written
    if (fs::remove(e.path, ec)) {
      total -= e.size;
      metrics.add_count("store.evictions", 1);
      metrics.add_count("store.evicted_bytes",
                        static_cast<std::int64_t>(e.size));
    }
  }
}

}  // namespace ind::store
