#include "circuit/sources.hpp"

#include <algorithm>
#include <stdexcept>

namespace ind::circuit {

Pwl::Pwl(std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
  if (!std::is_sorted(points_.begin(), points_.end(),
                      [](const auto& a, const auto& b) { return a.first < b.first; }))
    throw std::invalid_argument("Pwl: points must be sorted by time");
}

double Pwl::operator()(double t) const {
  if (points_.empty()) return 0.0;
  if (t <= points_.front().first) return points_.front().second;
  if (t >= points_.back().first) return points_.back().second;
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double value, const auto& p) { return value < p.first; });
  const auto& [t1, v1] = *it;
  const auto& [t0, v0] = *(it - 1);
  const double alpha = (t - t0) / (t1 - t0);
  return v0 + alpha * (v1 - v0);
}

Pwl Pwl::constant(double value) { return Pwl({{0.0, value}}); }

Pwl Pwl::ramp(double t0, double rise, double amplitude) {
  return Pwl({{t0, 0.0}, {t0 + rise, amplitude}});
}

double SwitchingProfileGenerator::uniform() {
  // xorshift64*
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  const std::uint64_t x = state_ * 0x2545F4914F6CDD1DULL;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

Pwl SwitchingProfileGenerator::background_current(double t_stop,
                                                  double peak_amps,
                                                  int pulses) {
  std::vector<double> starts(static_cast<std::size_t>(pulses));
  for (double& s : starts) s = uniform() * t_stop * 0.8;
  std::sort(starts.begin(), starts.end());

  std::vector<std::pair<double, double>> pts;
  pts.emplace_back(0.0, 0.0);
  double t_last = 0.0;
  for (double s : starts) {
    const double height = peak_amps * (0.3 + 0.7 * uniform());
    const double dur = t_stop * (0.02 + 0.08 * uniform());
    const double start = std::max(s, t_last + 1e-15);
    pts.emplace_back(start, 0.0);
    pts.emplace_back(start + 0.5 * dur, height);
    pts.emplace_back(start + dur, 0.0);
    t_last = start + dur;
  }
  pts.emplace_back(std::max(t_stop, t_last + 1e-15), 0.0);
  // Re-sort defensively; overlapping pulses collapse to interleaved points.
  std::sort(pts.begin(), pts.end());
  // Deduplicate identical time stamps.
  pts.erase(std::unique(pts.begin(), pts.end(),
                        [](const auto& a, const auto& b) {
                          return a.first == b.first;
                        }),
            pts.end());
  return Pwl(std::move(pts));
}

}  // namespace ind::circuit
