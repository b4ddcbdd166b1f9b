// Time-domain source waveforms.
//
// Everything the paper's model needs: ramps for switching gate inputs,
// pulses, and the pseudo-random piecewise-linear profiles used for the
// "time-varying current sources connected at random locations" that model
// background switching activity in the grid (Section 3).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace ind::circuit {

/// Piecewise-linear waveform; flat extrapolation outside the defined range.
class Pwl {
 public:
  Pwl() = default;
  explicit Pwl(std::vector<std::pair<double, double>> points);

  /// Value at time t (linear interpolation, clamped ends).
  double operator()(double t) const;

  bool empty() const { return points_.empty(); }
  const std::vector<std::pair<double, double>>& points() const {
    return points_;
  }

  // --- factories ---
  static Pwl constant(double value);
  /// 0 -> `amplitude` linear ramp starting at t0 with the given rise time.
  static Pwl ramp(double t0, double rise, double amplitude);

 private:
  std::vector<std::pair<double, double>> points_;  // sorted by time
};

/// Deterministic xorshift-based generator for reproducible pseudo-random
/// switching profiles (no global RNG state; same seed -> same workload).
class SwitchingProfileGenerator {
 public:
  explicit SwitchingProfileGenerator(std::uint64_t seed) : state_(seed | 1) {}

  /// Uniform double in [0, 1).
  double uniform();

  /// A background-current profile: a sequence of triangular current pulses
  /// of random height in [0, peak_amps] at random times in [0, t_stop],
  /// modelling "different parts of the chip switching at different times".
  Pwl background_current(double t_stop, double peak_amps, int pulses);

 private:
  std::uint64_t state_;
};

}  // namespace ind::circuit
