#include "robust/fault_injection.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "runtime/metrics.hpp"

namespace ind::robust::fault {
namespace {

/// Which call indices of one site fire.
struct SiteSpec {
  bool always = false;
  std::vector<std::int64_t> targets;  // sorted call indices
};

using Spec = std::array<SiteSpec, kSiteCount>;

struct SiteCounters {
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> fired{0};
};

struct Config {
  std::array<SiteCounters, kSiteCount> sites;
  /// The active spec, or null. Published specs are immutable and kept until
  /// exit (a fire() may still read an older one), so fire() reads without a
  /// lock while configure()/clear() publish a replacement.
  std::atomic<const Spec*> spec{nullptr};
  std::deque<Spec> published;  // guarded by mutex
  std::once_flag env_once;
  std::mutex mutex;  // serialises configure()/clear()
};

Config& config() {
  static Config c;
  return c;
}

constexpr std::array<const char*, kSiteCount> kSiteNames = {
    "dense_lu_pivot", "sparse_lu_pivot", "transient_step", "krylov_block",
    "ladder_jacobian", "store_read", "budget_check", "serve_read",
    "store_write", "serve_send", "gmres_iter", "worker_exec"};

int site_index_from_name(const std::string& name) {
  for (int i = 0; i < kSiteCount; ++i)
    if (name == kSiteNames[static_cast<std::size_t>(i)]) return i;
  return -1;
}

std::int64_t parse_index(const std::string& text) {
  std::size_t pos = 0;
  std::int64_t v = -1;
  try {
    v = std::stoll(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != text.size() || v < 0)
    throw std::invalid_argument("IND_FAULT_INJECT: bad call index '" + text +
                                "'");
  return v;
}

/// Publishes `spec` (none: inactive) with every counter zeroed.
void publish(std::optional<Spec> spec) {
  Config& c = config();
  std::scoped_lock lock(c.mutex);
  detail::g_active.store(false, std::memory_order_relaxed);
  for (SiteCounters& s : c.sites) {
    s.calls.store(0, std::memory_order_relaxed);
    s.fired.store(0, std::memory_order_relaxed);
  }
  const Spec* active =
      spec ? &c.published.emplace_back(std::move(*spec)) : nullptr;
  c.spec.store(active, std::memory_order_release);
  detail::g_active.store(active != nullptr, std::memory_order_relaxed);
}

/// Parses the full spec and publishes it. Grammar:
///   spec    := entry (';' entry)*
///   entry   := site '@' indices
///   indices := '*' | index (',' index)*
///   index   := N | N '-' M
void apply_spec(const std::string& spec) {
  Spec parsed{};
  std::size_t begin = 0;
  bool any = false;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(';', begin);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(begin, end - begin);
    begin = end + 1;
    // Trim surrounding whitespace.
    const auto first = entry.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    entry = entry.substr(first, entry.find_last_not_of(" \t") - first + 1);
    const std::size_t at = entry.find('@');
    if (at == std::string::npos)
      throw std::invalid_argument("IND_FAULT_INJECT: entry '" + entry +
                                  "' missing '@'");
    const int site = site_index_from_name(entry.substr(0, at));
    if (site < 0)
      throw std::invalid_argument("IND_FAULT_INJECT: unknown site '" +
                                  entry.substr(0, at) + "'");
    SiteSpec& state = parsed[static_cast<std::size_t>(site)];
    std::string indices = entry.substr(at + 1);
    if (indices == "*") {
      state.always = true;
    } else {
      std::size_t ib = 0;
      while (ib <= indices.size()) {
        std::size_t ie = indices.find(',', ib);
        if (ie == std::string::npos) ie = indices.size();
        const std::string tok = indices.substr(ib, ie - ib);
        ib = ie + 1;
        if (tok.empty()) continue;
        const std::size_t dash = tok.find('-');
        if (dash == std::string::npos) {
          state.targets.push_back(parse_index(tok));
        } else {
          const std::int64_t lo = parse_index(tok.substr(0, dash));
          const std::int64_t hi = parse_index(tok.substr(dash + 1));
          if (hi < lo)
            throw std::invalid_argument("IND_FAULT_INJECT: bad range '" + tok +
                                        "'");
          for (std::int64_t k = lo; k <= hi; ++k) state.targets.push_back(k);
        }
      }
      std::sort(state.targets.begin(), state.targets.end());
    }
    any = true;
  }
  publish(any ? std::optional<Spec>(std::move(parsed)) : std::nullopt);
}

void load_env_spec() {
  const char* env = std::getenv("IND_FAULT_INJECT");
  if (env == nullptr || *env == '\0') {
    detail::g_active.store(false, std::memory_order_relaxed);
    return;
  }
  apply_spec(env);
}

}  // namespace

namespace detail {

// Armed at static init purely on the presence of the variable; the spec is
// parsed on the first fire() so a malformed value fails loudly at the first
// guarded operation, not during static initialisation.
std::atomic<bool> g_active{[] {
  const char* env = std::getenv("IND_FAULT_INJECT");
  return env != nullptr && *env != '\0';
}()};

bool fire_slow(Site site) {
  Config& c = config();
  std::call_once(c.env_once, load_env_spec);
  const Spec* spec = c.spec.load(std::memory_order_acquire);
  if (spec == nullptr) return false;
  const SiteSpec& target = (*spec)[static_cast<std::size_t>(site)];
  SiteCounters& s = c.sites[static_cast<std::size_t>(site)];
  const std::int64_t idx = s.calls.fetch_add(1, std::memory_order_relaxed);
  const bool hit = target.always ||
                   std::binary_search(target.targets.begin(),
                                      target.targets.end(), idx);
  if (hit) {
    s.fired.fetch_add(1, std::memory_order_relaxed);
    runtime::MetricsRegistry::instance().add_count("robust.fault.injected", 1);
  }
  return hit;
}

}  // namespace detail

void configure(const std::string& spec) {
  Config& c = config();
  // Make sure the env spec never overwrites a programmatic one later.
  std::call_once(c.env_once, [] {});
  if (spec.empty()) {
    clear();
    return;
  }
  apply_spec(spec);
}

void clear() {
  std::call_once(config().env_once, [] {});
  publish(std::nullopt);
}

std::int64_t fired(Site site) {
  return config()
      .sites[static_cast<std::size_t>(site)]
      .fired.load(std::memory_order_relaxed);
}

std::int64_t calls(Site site) {
  return config()
      .sites[static_cast<std::size_t>(site)]
      .calls.load(std::memory_order_relaxed);
}

}  // namespace ind::robust::fault
