#include "circuit/transient.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "govern/budget.hpp"
#include "la/lu.hpp"
#include "la/sparse.hpp"
#include "la/sparse_lu.hpp"
#include "robust/fault_injection.hpp"
#include "robust/recovery.hpp"
#include "runtime/metrics.hpp"

namespace ind::circuit {
namespace {

using Clock = std::chrono::steady_clock;

// Bounded dt-halving retries when a step produces non-finite state: retry m
// re-integrates the step as 2^m backward-Euler substeps (after one plain
// re-solve, which alone clears transient/injected faults).
constexpr int kMaxStepRetries = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Rejects a driver, output or B column that does not fit an n-unknown
// system, so no stamp or output reads past x at run time.
void check_system(const DescriptorSystem& sys) {
  const std::size_t n = sys.size();
  auto fits = [n](NodeId node) {
    return node < 0 || static_cast<std::size_t>(node) < n;
  };
  for (const SwitchedDriver& d : sys.drivers)
    if (!fits(d.out) || !fits(d.vdd) || !fits(d.gnd))
      throw std::invalid_argument("transient: driver '" + d.name +
                                  "' names an unknown out of range");
  for (const Output& o : sys.outputs) {
    for (const auto& term : o.terms)
      if (term.first >= n)
        throw std::invalid_argument("transient: output '" + o.name +
                                    "' reads an unknown out of range");
    if (o.gain != Output::Gain::One && o.driver >= sys.drivers.size())
      throw std::invalid_argument("transient: output '" + o.name +
                                  "' names no driver");
  }
  if (sys.g.cols() != n || sys.c.rows() != n || sys.c.cols() != n ||
      sys.b.rows() != n || sys.b.cols() != sys.inputs.size())
    throw std::invalid_argument(
        "transient: G and C must be n x n, B n x inputs.size()");
}

double output_value(const Output& o, const std::vector<SwitchedDriver>& drivers,
                    const la::Vector& x, double t) {
  // Starting from the first term keeps a lone unknown's value bit-exact,
  // a -0.0 included.
  double y = 0.0;
  for (std::size_t k = 0; k < o.terms.size(); ++k) {
    const double v = o.terms[k].second * x[o.terms[k].first];
    y = k == 0 ? v : y + v;
  }
  switch (o.gain) {
    case Output::Gain::One: return y;
    case Output::Gain::PullUp: return drivers[o.driver].g_up(t) * y;
    case Output::Gain::PullDown: return drivers[o.driver].g_dn(t) * y;
  }
  throw std::logic_error("output_value: unknown gain");
}

// Fingerprint of the driver conductance state, into `s`; a refactorisation
// is needed exactly when this changes between steps.
void driver_state(const std::vector<SwitchedDriver>& drivers, double t,
                  std::vector<double>& s) {
  s.clear();
  for (const SwitchedDriver& d : drivers) {
    s.push_back(d.g_up(t));
    s.push_back(d.g_dn(t));
  }
}

// The unknowns a driver transition restamps (every driver's out, vdd and
// gnd), sorted. Every sparse analysis orders them last, so a transition
// changes only the trailing columns and the refactor recomputes just those.
std::vector<std::size_t> driver_nodes(const std::vector<SwitchedDriver>& drivers) {
  std::vector<std::size_t> nodes;
  for (const SwitchedDriver& d : drivers)
    for (const NodeId node : {d.out, d.vdd, d.gnd})
      if (node >= 0) nodes.push_back(static_cast<std::size_t>(node));
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

// y = G(t) x: the static G plus the drivers' conductances at t, applied
// directly (few entries, avoids re-compressing).
void apply_g(const la::CscMatrix& g_static,
             const std::vector<SwitchedDriver>& drivers, double t,
             const la::Vector& x, la::Vector& y) {
  g_static.apply(x, y);
  for (const SwitchedDriver& d : drivers) {
    for (const auto& [node_a, node_b, g] :
         {std::tuple{d.out, d.vdd, d.g_up(t)}, std::tuple{d.out, d.gnd, d.g_dn(t)}}) {
      const double va = node_a >= 0 ? x[static_cast<std::size_t>(node_a)] : 0.0;
      const double vb = node_b >= 0 ? x[static_cast<std::size_t>(node_b)] : 0.0;
      const double i = g * (va - vb);
      if (node_a >= 0) y[static_cast<std::size_t>(node_a)] += i;
      if (node_b >= 0) y[static_cast<std::size_t>(node_b)] -= i;
    }
  }
}

// G's triplets, the drivers' stamps at t, then C's scaled (left out at
// scale 0): the companion matrix's stamping order.
la::TripletMatrix companion_triplets(const DescriptorSystem& sys,
                                     double scale, double t) {
  la::TripletMatrix a = sys.g;
  stamp_drivers(sys.drivers, a, t);
  if (scale != 0.0)
    for (const auto& e : sys.c.entries()) a.add(e.row, e.col, scale * e.value);
  return a;
}

}  // namespace

CompanionMatrix::CompanionMatrix(const DescriptorSystem& sys, double scale,
                                 double t)
    : sys_(&sys), scale_(scale), drivers_(sys.size(), sys.size()) {
  const la::TripletMatrix stamped = companion_triplets(sys, scale, t);
  plan_ = la::CscAssembly(stamped);
  a_ = plan_.matrix(
      [&](std::size_t i) { return stamped.entries()[i].value; });
}

const la::CscMatrix& CompanionMatrix::at(double t) {
  drivers_.clear();
  stamp_drivers(sys_->drivers, drivers_, t);
  const auto& g = sys_->g.entries();
  const auto& d = drivers_.entries();
  const auto& c = sys_->c.entries();
  plan_.refill(a_, [&](std::size_t i) {
    if (i < g.size()) return g[i].value;
    i -= g.size();
    if (i < d.size()) return d[i].value;
    return scale_ * c[i - d.size()].value;
  });
  return a_;
}

const la::Vector& TransientResult::waveform(const std::string& name) const {
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return samples[i];
  throw std::out_of_range("TransientResult::waveform: no probe named " + name);
}

TransientResult transient(const Netlist& netlist,
                          const std::vector<Probe>& probes,
                          const TransientOptions& options) {
  return transient(Mna(netlist).system(probes), options);
}

TransientResult transient(const DescriptorSystem& sys,
                          const TransientOptions& options) {
  if (options.dt <= 0.0 || options.t_stop <= 0.0)
    throw std::invalid_argument("transient: dt and t_stop must be positive");
  runtime::ScopedTimer timer("solve.transient");

  const std::size_t n = sys.size();
  if (n == 0) throw std::invalid_argument("transient: empty circuit");
  check_system(sys);
  const la::CscMatrix g_static(sys.g);
  const la::CscMatrix c_csc(sys.c);
  const la::CscMatrix b_csc(sys.b);

  TransientResult result;
  result.unknowns = n;
  result.names.reserve(sys.outputs.size());
  for (const Output& o : sys.outputs) result.names.push_back(o.name);
  result.samples.assign(sys.outputs.size(), {});

  const double h = options.dt;
  const double c_scale = 2.0 / h;

  // Companion matrix G + scale*C (+ drivers at t). Re-stamping produces the
  // same triplet sequence every time, so the compressed pattern is identical
  // across driver transitions and the factor's numeric-only refactor path
  // applies; the held one (CompanionMatrix) is refilled in place. The DC
  // matrix (scale 0) leaves C's pattern out: stamped as explicit zeros it
  // would share the companion's analysis, but its branch rows pivot off the
  // empty diagonal and the full-RLC DC factor then fills 2.9x more than the
  // companion's. Where they coincide (a PRIMA model's dense Gr covers Cr),
  // the DC factor shares the companion's analysis.
  auto companion = [&](double scale, double t) {
    return la::CscMatrix(companion_triplets(sys, scale, t));
  };
  // b(t) = B u(t), into `b`.
  la::Vector u(sys.inputs.size());
  auto rhs = [&](double t, la::Vector& b) {
    for (std::size_t k = 0; k < u.size(); ++k) u[k] = sys.inputs[k](t);
    b_csc.apply(u, b);
  };
  // Hager's kappa_1 estimate of a freshly factored matrix, from the factor's
  // own solves (a handful of backsolves, no densification).
  auto estimate_condition = [&](const la::CscMatrix& a,
                                const robust::GuardedSparseFactor& f) {
    runtime::ScopedTimer timer("robust.condition_estimate");
    result.report.condition_estimate = std::max(
        result.report.condition_estimate,
        la::norm1(a) * la::inverse_norm1_estimate<double>(
                           n, [&](const la::Vector& v) { return f.solve(v); },
                           [&](const la::Vector& v) {
                             return f.solve_transposed(v);
                           }));
  };
  auto finish = [&]() {
    auto& metrics = runtime::MetricsRegistry::instance();
    metrics.add_count("solve.transient.steps",
                      static_cast<std::int64_t>(
                          result.time.empty() ? 0 : result.time.size() - 1));
    metrics.add_count("solve.transient.refactors",
                      static_cast<std::int64_t>(result.refactor_count));
    metrics.max_count("solve.transient.max_unknowns",
                      static_cast<std::int64_t>(n));
    result.report.record("transient");
    return std::move(result);
  };
  auto fail = [&](std::string detail) {
    result.report.raise_status(robust::SolveStatus::Failed);
    if (!result.report.detail.empty()) result.report.detail += "; ";
    result.report.detail += std::move(detail);
    return finish();
  };

  // Every factor orders the driver nodes last: the held one, whose
  // transitions then restart at the first driver column, and the one-off
  // DC and dt-halving factors alike.
  robust::GuardedSparseFactor factor;
  factor.last = driver_nodes(sys.drivers);
  auto factor_once = [&](const la::CscMatrix& a, robust::SolveReport& rep) {
    robust::GuardedSparseFactor f;
    f.last = factor.last;
    f.analysis = factor.analysis;
    robust::refactor_sparse_with_recovery(f, a, rep, "transient");
    return f;
  };
  std::vector<double> factored_state;
  auto refactor = [&](const la::CscMatrix& a, double t) {
    const auto t0 = Clock::now();
    robust::refactor_sparse_with_recovery(factor, a, result.report,
                                          "transient");
    driver_state(sys.drivers, t, factored_state);
    // Driver transitions only move a few conductances: estimate once.
    if (result.refactor_count == 0 && factor.usable())
      estimate_condition(a, factor);
    ++result.refactor_count;
    result.factor_seconds += seconds_since(t0);
    return factor.usable();
  };

  // --- DC operating point at t = 0: G(0) x = b(0).
  la::Vector x(n, 0.0);
  CompanionMatrix held(sys, c_scale, h);  // first step's, at t1
  const la::CscMatrix& a1 = held.matrix();
  la::Vector b_prev;  // b(t) of the last accepted step
  {
    const auto t0 = Clock::now();
    const la::CscMatrix g0 = companion(0.0, 0.0);
    if (g0.col_ptr() == a1.col_ptr() && g0.row_idx() == a1.row_idx())
      factor.analysis = la::SparseLuSymbolic(g0, factor.last);
    const robust::GuardedSparseFactor dc = factor_once(g0, result.report);
    if (!dc.usable()) return fail("DC operating point factorisation failed");
    estimate_condition(g0, dc);
    rhs(0.0, b_prev);
    x = dc.solve(b_prev);
    result.step_seconds += seconds_since(t0);
    if (!robust::all_finite(x))
      return fail("DC operating point is non-finite");
  }

  // Re-integrates one step [t_start, t_start + h] as `sub` backward-Euler
  // substeps (L-stable, so it damps blow-ups trapezoidal can ring on). The
  // substep companion matrix stamps the drivers at the end of the interval —
  // the same approximation the outer loop makes between refactorisations.
  // Returns a non-finite vector when the rung itself fails.
  auto integrate_substeps = [&](const la::Vector& x_start, double t_start,
                                int sub) {
    const double hs = h / sub;
    robust::SolveReport subrep;
    const robust::GuardedSparseFactor f =
        factor_once(companion(1.0 / hs, t_start + h), subrep);
    la::Vector xs = x_start, bs, ys;
    if (!f.usable()) {
      // Keep the rung's actions/detail, but let the outer ladder decide the
      // final status: a later rung (different dt, different matrix) may
      // still succeed.
      for (const auto& act : subrep.actions)
        result.report.actions.push_back(act);
      if (!subrep.detail.empty()) {
        if (!result.report.detail.empty()) result.report.detail += "; ";
        result.report.detail += subrep.detail;
      }
      xs.assign(n, std::numeric_limits<double>::quiet_NaN());
      return xs;
    }
    result.report.merge(subrep);
    for (int i = 1; i <= sub; ++i) {
      rhs(t_start + i * hs, bs);
      c_csc.apply(xs, ys);
      for (std::size_t j = 0; j < n; ++j) ys[j] = ys[j] / hs + bs[j];
      xs = f.solve(ys);
      if (robust::fault::fire(robust::fault::Site::TransientStep))
        xs[0] = std::numeric_limits<double>::quiet_NaN();
      if (!robust::all_finite(xs)) break;
    }
    return xs;
  };

  const std::size_t steps =
      static_cast<std::size_t>(std::ceil(options.t_stop / h));
  result.time.reserve(steps + 1);
  for (auto& s : result.samples) s.reserve(steps + 1);

  auto record = [&](double t) {
    result.time.push_back(t);
    for (std::size_t p = 0; p < sys.outputs.size(); ++p)
      result.samples[p].push_back(
          output_value(sys.outputs[p], sys.drivers, x, t));
  };
  record(0.0);

  if (!refactor(a1, h))
    return fail("companion matrix factorisation failed");

  // The step's buffers, reused by every step (none of it allocates once
  // they are sized): b(t_next), the right side y, G(t)·x, the previous x,
  // the driver state and the solve's scratch.
  la::Vector b_next, y, gx, x_prev, solve_work;
  std::vector<double> state;
  // Budget charge per step: the dominant per-step cost is the
  // nnz-proportional backsolve. It is a pure function of the problem shape,
  // so the running total stays deterministic, and a cheaper (sparser) model
  // genuinely reports less work — which is what lets the analyzer's
  // degradation ladder find a rung that fits the budget.
  const std::uint64_t step_cost =
      static_cast<std::uint64_t>(g_static.nnz() + c_csc.nnz() + n);
  auto truncate = [&](std::size_t k, govern::BudgetKind kind) {
    result.truncated = true;
    result.report.add_action(robust::RecoveryKind::BudgetExceeded, 0, 0.0,
                             "transient truncated at step " +
                                 std::to_string(k) + " [" +
                                 govern::to_string(kind) + "]");
  };
  for (std::size_t k = 1; k <= steps; ++k) {
    // Budget poll per step. A tripped budget keeps the waveform prefix
    // computed so far, marked truncated — an explicit partial answer beats
    // none when the deadline is the binding limit.
    if (govern::checkpoint(step_cost)) {
      truncate(k, govern::current_run()->cancel_kind());
      break;
    }
    const double t_prev = (k - 1) * h;
    const double t_next = k * h;

    // Refactor only if driver conductances moved since the factored state.
    driver_state(sys.drivers, t_next, state);
    if (state != factored_state) {
      try {
        if (!refactor(held.at(t_next), t_next))
          return fail("companion matrix factorisation failed at t = " +
                      std::to_string(t_next) + " s");
      } catch (const govern::CancelledError& e) {
        // A budget trip inside the factorisation kernel: keep the waveform
        // prefix instead of surfacing the throw.
        truncate(k, e.kind());
        break;
      }
    }

    const auto t0 = Clock::now();
    rhs(t_next, b_next);

    // Trapezoidal: y = (2/h)C x_n - G(t_n) x_n + b_n + b_{n+1}.
    c_csc.apply(x, y);
    for (double& v : y) v *= c_scale;
    apply_g(g_static, sys.drivers, t_prev, x, gx);
    for (std::size_t i = 0; i < n; ++i) y[i] += b_next[i] + b_prev[i] - gx[i];

    x_prev = x;
    factor.solve(y, x, solve_work);
    if (robust::fault::fire(robust::fault::Site::TransientStep))
      x[0] = std::numeric_limits<double>::quiet_NaN();
    if (!robust::all_finite(x)) {
      const std::string site = "transient step " + std::to_string(k);
      // Rung 0: plain re-solve. A transient (injected) fault clears here,
      // and the re-solved step is bitwise identical to an undisturbed run.
      result.report.add_action(robust::RecoveryKind::Retry, 0, 0.0, site);
      factor.solve(y, x, solve_work);
      if (robust::fault::fire(robust::fault::Site::TransientStep))
        x[0] = std::numeric_limits<double>::quiet_NaN();
      // Rungs 1..kMaxStepRetries: re-integrate the step at halved dt.
      for (int m = 1; !robust::all_finite(x) && m <= kMaxStepRetries; ++m) {
        const int sub = 1 << m;
        result.report.add_action(robust::RecoveryKind::DtHalving, m, h / sub,
                                 site);
        x = integrate_substeps(x_prev, t_prev, sub);
      }
      if (!robust::all_finite(x))
        return fail("non-finite solution at step " + std::to_string(k) +
                    " (t = " + std::to_string(t_next) + " s) after " +
                    std::to_string(kMaxStepRetries) +
                    " dt-halving retries");
    }
    b_prev.swap(b_next);
    result.step_seconds += seconds_since(t0);
    record(t_next);
  }
  return finish();
}

}  // namespace ind::circuit
