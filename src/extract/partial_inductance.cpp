#include "extract/partial_inductance.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "govern/budget.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"

namespace ind::extract {

double self_gmd(double w, double t) { return 0.2235 * (w + t); }

double mutual_partial_inductance(double l1, double l2, double axial_gap,
                                 double gmd) {
  if (l1 <= 0.0 || l2 <= 0.0) return 0.0;
  if (gmd <= 0.0)
    throw std::invalid_argument("mutual_partial_inductance: gmd must be > 0");
  const double s = axial_gap;
  const double m = grover_f(l1 + l2 + s, gmd) - grover_f(l1 + s, gmd) -
                   grover_f(l2 + s, gmd) + grover_f(s, gmd);
  return geom::kMu0 / (4.0 * M_PI) * m;
}

void mutual_partial_inductance_batch(std::size_t n, const double* l1,
                                     const double* l2, const double* axial_gap,
                                     const double* gmd, double* out) {
  // Validation pass first so the compute loop below is throw-free (and
  // therefore eligible for auto-vectorisation of the sqrt/log chain).
  for (std::size_t k = 0; k < n; ++k)
    if (l1[k] > 0.0 && l2[k] > 0.0 && gmd[k] <= 0.0)
      throw std::invalid_argument(
          "mutual_partial_inductance_batch: gmd must be > 0");
  for (std::size_t k = 0; k < n; ++k) {
    if (l1[k] <= 0.0 || l2[k] <= 0.0) {
      out[k] = 0.0;
      continue;
    }
    const double s = axial_gap[k];
    const double d = gmd[k];
    const double m = grover_f(l1[k] + l2[k] + s, d) - grover_f(l1[k] + s, d) -
                     grover_f(l2[k] + s, d) + grover_f(s, d);
    out[k] = geom::kMu0 / (4.0 * M_PI) * m;
  }
}

double self_partial_inductance(double len, double w, double t) {
  if (len <= 0.0) return 0.0;
  // The self term is the filament mutual of the bar with itself at the
  // cross-section's geometric mean distance; this reproduces Ruehli's
  //   (mu0 l / 2pi)[ln(2l/(w+t)) + 1/2 + 0.2235(w+t)/l]
  // for l >> w+t while staying consistent (hence PSD-safe) with the mutual
  // kernel used for every off-diagonal entry.
  return mutual_partial_inductance(len, len, -len, self_gmd(w, t));
}

MutualArgs mutual_args(const geom::Segment& s, const geom::Segment& t,
                       const geom::ParallelGeometry& g) {
  MutualArgs a;
  a.l1 = g.length_i;
  a.l2 = g.length_j;
  a.axial_gap = g.axial_gap;
  // Orientation sign: current direction defined a -> b.
  const double ds = s.axis() == geom::Axis::X ? s.b.x - s.a.x : s.b.y - s.a.y;
  const double dt = t.axis() == geom::Axis::X ? t.b.x - t.a.x : t.b.y - t.a.y;
  a.sign = (ds >= 0) == (dt >= 0) ? 1.0 : -1.0;
  // GMD: centre-to-centre distance, clamped below by the cross-section GMDs
  // so that overlapping / abutting conductors stay consistent with the self
  // term (required for positive definiteness).
  const double clamp = 0.5 * (self_gmd(s.width, s.thickness) +
                              self_gmd(t.width, t.thickness));
  a.gmd = std::max(g.center_distance(), clamp);
  return a;
}

double mutual_between(const geom::Segment& s, const geom::Segment& t,
                      const geom::ParallelGeometry& g) {
  const MutualArgs a = mutual_args(s, t, g);
  return a.sign *
         mutual_partial_inductance(a.l1, a.l2, a.axial_gap, a.gmd);
}

double mutual_between(const geom::Segment& s, const geom::Segment& t) {
  const auto g = geom::parallel_geometry(s, t);
  if (!g) return 0.0;  // orthogonal: zero by symmetry
  return mutual_between(s, t, *g);
}

la::Matrix build_partial_inductance_matrix(
    const std::vector<geom::Segment>& segments,
    const PartialMatrixOptions& opts) {
  const std::size_t n = segments.size();
  runtime::ScopedTimer timer("assemble.partial_l");
  auto& metrics = runtime::MetricsRegistry::instance();
  metrics.max_count("assemble.partial_l.max_dim",
                    static_cast<std::int64_t>(n));
  // Derived throughput gauge, computed at snapshot time so it reflects the
  // final term count / assembly-time ratio rather than any single call.
  static std::once_flag hook_once;
  std::call_once(hook_once, [&metrics] {
    auto& terms = metrics.counter("assemble.partial_l.mutual_terms");
    auto& assemble_timer = metrics.timer("assemble.partial_l");
    auto& rate = metrics.counter("assemble.partial_l.terms_per_sec");
    metrics.add_snapshot_hook([&terms, &assemble_timer, &rate] {
      const double secs =
          static_cast<double>(assemble_timer.total_ns.load()) * 1e-9;
      const std::int64_t t = terms.value.load();
      rate.value.store(secs > 0.0 ? static_cast<std::int64_t>(
                                        static_cast<double>(t) / secs)
                                  : 0);
    });
  });
  la::Matrix l(n, n);
  // Row-parallel over the upper triangle. Each (i, j) pair is evaluated by
  // exactly one chunk with the same scalar arithmetic as the serial loop,
  // and every element of `l` is written at most once — so the result is
  // bitwise-identical to serial at any thread count (the determinism test in
  // tests/test_runtime.cpp pins this down).
  runtime::parallel_for(
      n,
      [&](std::size_t i_begin, std::size_t i_end) {
        // Budget poll at the chunk boundary. The unit charge is the chunk's
        // pair count — a pure function of its row range, so the total over
        // all chunks depends only on n and a work-budget trip decision is
        // identical at any thread count. A tripped chunk bails before
        // writing; the cancel token skips the chunks not yet started and
        // the throw below discards the partial matrix.
        const std::size_t pairs =
            (i_end - i_begin) * n -
            (i_end * (i_end - 1) - i_begin * (i_begin - 1)) / 2;
        if (govern::checkpoint(pairs)) return;
        std::int64_t mutual_terms = 0;
        // Per-row gather / batch-evaluate / scatter: the geometry of each
        // pair is computed exactly once (it used to be computed twice — once
        // for the window check and again inside mutual_between), the Grover
        // kernel runs over contiguous argument arrays, and the per-element
        // arithmetic — including the sign multiply — is identical to the
        // scalar path, so the bitwise-determinism oracle keeps holding.
        std::vector<std::size_t> idx;
        std::vector<double> bl1, bl2, bgap, bgmd, bsign, bval;
        for (std::size_t i = i_begin; i < i_end; ++i) {
          l(i, i) = self_partial_inductance(
              segments[i].length(), segments[i].width, segments[i].thickness);
          idx.clear();
          bl1.clear();
          bl2.clear();
          bgap.clear();
          bgmd.clear();
          bsign.clear();
          for (std::size_t j = i + 1; j < n; ++j) {
            const auto g = geom::parallel_geometry(segments[i], segments[j]);
            if (!g || g->center_distance() > opts.window) continue;
            const MutualArgs a = mutual_args(segments[i], segments[j], *g);
            idx.push_back(j);
            bl1.push_back(a.l1);
            bl2.push_back(a.l2);
            bgap.push_back(a.axial_gap);
            bgmd.push_back(a.gmd);
            bsign.push_back(a.sign);
          }
          bval.resize(idx.size());
          mutual_partial_inductance_batch(idx.size(), bl1.data(), bl2.data(),
                                          bgap.data(), bgmd.data(),
                                          bval.data());
          for (std::size_t k = 0; k < idx.size(); ++k) {
            const double m = bsign[k] * bval[k];
            l(i, idx[k]) = m;
            l(idx[k], i) = m;
            // One count per unordered pair actually coupled — the symmetric
            // mirror store above is the same term, and a zero (orthogonal or
            // fully cancelled) entry is not a term at all.
            if (m != 0.0) ++mutual_terms;
          }
        }
        metrics.add_count("assemble.partial_l.mutual_terms", mutual_terms);
      },
      {.grain = 4, .cancel = govern::cancel_token()});
  govern::throw_if_cancelled("extract.partial_l");
  return l;
}

}  // namespace ind::extract
