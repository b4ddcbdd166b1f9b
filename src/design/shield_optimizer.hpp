// Simultaneous shield insertion and net ordering (He et al. [21];
// Section 7): "Coupling noise can be reduced by simultaneously inserting
// shields and ordering nets, subject to constraints on area, and bounds on
// inductive and capacitive noise. This optimization problem was found to be
// NP-hard and hence was solved by algorithms based on greedy approaches or
// simulated annealing."
//
// We implement the abstract track-assignment problem with both heuristics
// (plus exhaustive search as a small-instance oracle), and a generator that
// realises a solution as a concrete bus layout for extraction-based
// validation.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/topologies.hpp"
#include "la/dense_matrix.hpp"

namespace ind::design {

struct ShieldOrderProblem {
  int nets = 0;
  /// sensitivity(i, j): weight of noise injected by net j into net i
  /// (aggressor activity x victim sensitivity); diagonal ignored.
  la::Matrix sensitivity;
  int max_shields = 0;     ///< area budget
  double cap_weight = 1.0; ///< relative weight of capacitive noise
  double ind_weight = 1.0; ///< relative weight of inductive noise
  /// Per-victim noise bounds ("bounds on inductive and capacitive noise",
  /// [21]); violations enter the cost through a large penalty so every
  /// solver prefers feasible assignments.
  double cap_noise_bound = 1e300;
  double ind_noise_bound = 1e300;
  double bound_penalty = 1e6;
};

/// Per-victim noise received under an assignment (same units as the cost).
struct NoiseBreakdown {
  la::Vector cap_in;  ///< capacitive noise into each net
  la::Vector ind_in;  ///< inductive noise into each net
};

NoiseBreakdown compute_noise(const ShieldOrderProblem& p,
                             const struct TrackAssignment& t);

/// A solution: nets placed left-to-right in `order`, with an optional shield
/// after each position (shield_after.back() unused).
struct TrackAssignment {
  std::vector<int> order;          ///< permutation of [0, nets)
  std::vector<bool> shield_after;  ///< size nets; slot between k and k+1

  int shields_used() const;
};

/// Cost model: capacitive noise couples adjacent unshielded pairs only;
/// inductive noise decays with track distance and is attenuated by each
/// intervening shield (which provides a nearby current return):
///   cap: sum w_ij  over adjacent pairs with no shield between
///   ind: sum w_ij / (d_ij * (1 + shields_between)^2)
double evaluate_cost(const ShieldOrderProblem& p, const TrackAssignment& t);

/// Greedy: sort-by-aggressiveness ordering, then repeatedly insert the
/// shield with the largest cost reduction until the budget is exhausted.
TrackAssignment solve_greedy(const ShieldOrderProblem& p);

/// Simulated annealing over (order, shields) with deterministic seeding.
TrackAssignment solve_annealing(const ShieldOrderProblem& p,
                                std::uint64_t seed = 1,
                                int iterations = 20000);

/// Exhaustive oracle (factorial cost — instances up to ~7 nets only).
TrackAssignment solve_exhaustive(const ShieldOrderProblem& p);

/// Realises an assignment as a parallel-bus layout (shield tracks grounded)
/// so its actual extracted coupling can be compared against the cost model.
geom::Layout realize_assignment(const TrackAssignment& t,
                                const geom::BusSpec& track_template);

}  // namespace ind::design
