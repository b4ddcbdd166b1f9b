#include "design/shield_optimizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace ind::design {
namespace {

// Track coordinate of each net, counting shields as occupied slots.
std::vector<int> net_positions(const TrackAssignment& t) {
  std::vector<int> pos(t.order.size());
  int cursor = 0;
  for (std::size_t k = 0; k < t.order.size(); ++k) {
    pos[k] = cursor;
    ++cursor;
    if (k < t.shield_after.size() && t.shield_after[k]) ++cursor;
  }
  return pos;
}

struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed | 1) {}
  double uniform() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return static_cast<double>((state * 0x2545F4914F6CDD1DULL) >> 11) *
           0x1.0p-53;
  }
  std::size_t index(std::size_t n) {
    return std::min(static_cast<std::size_t>(uniform() * n), n - 1);
  }
};

void validate(const ShieldOrderProblem& p) {
  if (p.nets < 1) throw std::invalid_argument("shield optimizer: nets < 1");
  if (p.sensitivity.rows() != static_cast<std::size_t>(p.nets) ||
      p.sensitivity.cols() != static_cast<std::size_t>(p.nets))
    throw std::invalid_argument("shield optimizer: sensitivity shape");
}

TrackAssignment identity_assignment(int nets) {
  TrackAssignment t;
  t.order.resize(static_cast<std::size_t>(nets));
  std::iota(t.order.begin(), t.order.end(), 0);
  t.shield_after.assign(static_cast<std::size_t>(nets), false);
  return t;
}

}  // namespace

int TrackAssignment::shields_used() const {
  int n = 0;
  for (std::size_t k = 0; k + 1 < shield_after.size(); ++k)
    if (shield_after[k]) ++n;
  return n;
}

NoiseBreakdown compute_noise(const ShieldOrderProblem& p,
                             const TrackAssignment& t) {
  validate(p);
  if (t.order.size() != static_cast<std::size_t>(p.nets))
    throw std::invalid_argument("compute_noise: order size");
  NoiseBreakdown nb;
  nb.cap_in.assign(static_cast<std::size_t>(p.nets), 0.0);
  nb.ind_in.assign(static_cast<std::size_t>(p.nets), 0.0);
  const std::vector<int> pos = net_positions(t);
  auto w_into = [&](int victim, int aggressor) {
    return p.sensitivity(static_cast<std::size_t>(victim),
                         static_cast<std::size_t>(aggressor));
  };
  for (std::size_t k = 0; k < t.order.size(); ++k) {
    int shields_between = t.shield_after[k] ? 1 : 0;
    for (std::size_t m = k + 1; m < t.order.size(); ++m) {
      const int a = t.order[k], b = t.order[m];
      const double d = pos[m] - pos[k];
      const double atten =
          1.0 / (d * (1.0 + shields_between) * (1.0 + shields_between));
      if (m == k + 1 && shields_between == 0) {
        nb.cap_in[static_cast<std::size_t>(a)] += w_into(a, b);
        nb.cap_in[static_cast<std::size_t>(b)] += w_into(b, a);
      }
      nb.ind_in[static_cast<std::size_t>(a)] += w_into(a, b) * atten;
      nb.ind_in[static_cast<std::size_t>(b)] += w_into(b, a) * atten;
      if (m < t.shield_after.size() && t.shield_after[m]) ++shields_between;
    }
  }
  return nb;
}

double evaluate_cost(const ShieldOrderProblem& p, const TrackAssignment& t) {
  const NoiseBreakdown nb = compute_noise(p, t);
  double cap = 0.0, ind = 0.0, violation = 0.0;
  for (std::size_t i = 0; i < nb.cap_in.size(); ++i) {
    cap += nb.cap_in[i];
    ind += nb.ind_in[i];
    violation += std::max(0.0, nb.cap_in[i] - p.cap_noise_bound) +
                 std::max(0.0, nb.ind_in[i] - p.ind_noise_bound);
  }
  return p.cap_weight * cap + p.ind_weight * ind +
         p.bound_penalty * violation;
}

TrackAssignment solve_greedy(const ShieldOrderProblem& p) {
  validate(p);
  TrackAssignment best = identity_assignment(p.nets);

  // 2-opt on the ordering: swap pairs while the cost improves.
  double best_cost = evaluate_cost(p, best);
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < best.order.size(); ++i) {
      for (std::size_t j = i + 1; j < best.order.size(); ++j) {
        std::swap(best.order[i], best.order[j]);
        const double c = evaluate_cost(p, best);
        if (c < best_cost - 1e-15) {
          best_cost = c;
          improved = true;
        } else {
          std::swap(best.order[i], best.order[j]);
        }
      }
    }
  }

  // Greedy shield insertion: repeatedly take the slot with the biggest win.
  while (best.shields_used() < p.max_shields) {
    double best_gain = 0.0;
    std::ptrdiff_t best_slot = -1;
    for (std::size_t k = 0; k + 1 < best.shield_after.size(); ++k) {
      if (best.shield_after[k]) continue;
      best.shield_after[k] = true;
      const double c = evaluate_cost(p, best);
      best.shield_after[k] = false;
      const double gain = best_cost - c;
      if (gain > best_gain) {
        best_gain = gain;
        best_slot = static_cast<std::ptrdiff_t>(k);
      }
    }
    if (best_slot < 0) break;  // no slot helps
    best.shield_after[static_cast<std::size_t>(best_slot)] = true;
    best_cost -= best_gain;
  }
  return best;
}

TrackAssignment solve_annealing(const ShieldOrderProblem& p,
                                std::uint64_t seed, int iterations) {
  validate(p);
  Rng rng(seed);
  TrackAssignment cur = solve_greedy(p);  // warm start
  TrackAssignment best = cur;
  double cur_cost = evaluate_cost(p, cur);
  double best_cost = cur_cost;

  const double t_start = std::max(cur_cost, 1e-12);
  for (int it = 0; it < iterations; ++it) {
    const double temp =
        t_start * std::pow(1e-4, static_cast<double>(it) / iterations);
    TrackAssignment cand = cur;
    if (p.nets > 1 && rng.uniform() < 0.6) {
      const std::size_t i = rng.index(cand.order.size());
      const std::size_t j = rng.index(cand.order.size());
      std::swap(cand.order[i], cand.order[j]);
    } else if (cand.shield_after.size() > 1) {
      const std::size_t k = rng.index(cand.shield_after.size() - 1);
      cand.shield_after[k] = !cand.shield_after[k];
      if (cand.shields_used() > p.max_shields) continue;  // over budget
    }
    const double c = evaluate_cost(p, cand);
    if (c <= cur_cost || rng.uniform() < std::exp((cur_cost - c) / temp)) {
      cur = std::move(cand);
      cur_cost = c;
      if (c < best_cost) {
        best = cur;
        best_cost = c;
      }
    }
  }
  return best;
}

TrackAssignment solve_exhaustive(const ShieldOrderProblem& p) {
  validate(p);
  if (p.nets > 8)
    throw std::invalid_argument("solve_exhaustive: too many nets (> 8)");
  TrackAssignment t = identity_assignment(p.nets);
  TrackAssignment best = t;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<int> perm = t.order;
  std::sort(perm.begin(), perm.end());
  const unsigned slots = static_cast<unsigned>(p.nets - 1);
  do {
    t.order = perm;
    for (unsigned mask = 0; mask < (1u << slots); ++mask) {
      if (static_cast<int>(std::popcount(mask)) > p.max_shields) continue;
      for (unsigned k = 0; k < slots; ++k)
        t.shield_after[k] = (mask >> k) & 1u;
      t.shield_after[slots] = false;
      const double c = evaluate_cost(p, t);
      if (c < best_cost) {
        best_cost = c;
        best = t;
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

geom::Layout realize_assignment(const TrackAssignment& t,
                                const geom::BusSpec& track_template) {
  geom::Layout layout(geom::default_tech());
  const int gnd = layout.add_net("gnd", geom::NetKind::Ground);

  const double pitch = track_template.width + track_template.spacing;
  double y = track_template.origin.y;
  auto add_track = [&](int net) {
    layout.add_wire(net, track_template.layer, {track_template.origin.x, y},
                    {track_template.origin.x + track_template.length, y},
                    track_template.width);
    y += pitch;
  };

  for (std::size_t k = 0; k < t.order.size(); ++k) {
    const int net = layout.add_net("net" + std::to_string(t.order[k]),
                                   geom::NetKind::Signal);
    const double track_y = y;
    add_track(net);
    if (track_template.add_drivers) {
      geom::Driver d;
      d.at = {track_template.origin.x, track_y};
      d.layer = track_template.layer;
      d.signal_net = net;
      d.strength_ohm = track_template.driver_res;
      d.slew = track_template.slew;
      d.name = "net" + std::to_string(t.order[k]) + "_drv";
      layout.add_driver(std::move(d));
      geom::Receiver r;
      r.at = {track_template.origin.x + track_template.length, track_y};
      r.layer = track_template.layer;
      r.signal_net = net;
      r.load_cap = track_template.sink_cap;
      r.name = "net" + std::to_string(t.order[k]) + "_rcv";
      layout.add_receiver(std::move(r));
    }
    if (k < t.shield_after.size() && t.shield_after[k]) add_track(gnd);
  }
  return layout;
}

}  // namespace ind::design
