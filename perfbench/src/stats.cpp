#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

void Result::fail(const std::string& why) {
  correct = false;
  if (errors.size() < 8) errors.push_back(why);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail_value(std::vector<double> v, double* percentile) {
  if (v.empty()) {
    *percentile = 0.0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    *percentile = 100.0;
    return v.back();
  }
  *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return v[n - 11];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void add_end_to_end(Result& r, const std::vector<double>& op_ms,
                    double ok_ops, double window_s,
                    const std::vector<double>& setup_s) {
  double pct = 0.0;
  const double tail = tail_value(op_ms, &pct);
  if (op_ms.size() < 11)
    r.fail("fewer than 11 timed ops: op_tail_ms has no 10 samples beyond it");
  r.add("op_p50_ms", median(op_ms), "ms");
  r.add("op_tail_ms", tail, "ms");
  r.add("ops_per_s", window_s > 0 ? ok_ops / window_s : 0.0, "1/s");
  r.add("setup_s", median(setup_s), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.detail("op_samples", std::to_string(op_ms.size()));
  r.detail("op_tail_percentile", json_num(pct));
  r.detail("window_s", json_num(window_s));
  std::string setups = "[";
  for (std::size_t k = 0; k < setup_s.size(); ++k)
    setups += (k ? "," : "") + json_num(setup_s[k]);
  r.detail("setup_repeats_s", setups + "]");
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

int Rng::range(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<int>(next() % span);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  Rng r(seed * 0x100000001b3ULL + k);
  r.next();
  return r.next();
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
