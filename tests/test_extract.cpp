// Unit tests for extraction: partial inductance, R, C, skin splitting.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "extract/capacitance.hpp"
#include "extract/extractor.hpp"
#include "extract/partial_inductance.hpp"
#include "extract/resistance.hpp"
#include "extract/skin.hpp"
#include "la/cholesky.hpp"
#include "matrix_checks.hpp"

namespace {

using namespace ind;
using namespace ind::extract;
using geom::um;

TEST(PartialInductance, SelfMatchesRuehliFormula) {
  // L = (mu0 l / 2pi)[ln(2l/(w+t)) + 0.5 + 0.2235 (w+t)/l]
  const double l = um(1000), w = um(2), t = um(1);
  const double expected = geom::kMu0 * l / (2 * M_PI) *
                          (std::log(2 * l / (w + t)) + 0.5 +
                           0.2235 * (w + t) / l);
  EXPECT_NEAR(self_partial_inductance(l, w, t), expected, 0.01 * expected);
}

TEST(PartialInductance, MillimetreWireIsAboutOneNanohenryPerMm) {
  // Classic rule of thumb: on-chip wires run ~1 nH/mm.
  const double l1 = self_partial_inductance(um(1000), um(1), um(1));
  EXPECT_GT(l1, 0.8e-9);
  EXPECT_LT(l1, 2.0e-9);
}

TEST(PartialInductance, SelfScalesSuperlinearlyWithLength) {
  const double l1 = self_partial_inductance(um(500), um(1), um(1));
  const double l2 = self_partial_inductance(um(1000), um(1), um(1));
  EXPECT_GT(l2, 2.0 * l1);  // l ln(l) growth
}

TEST(PartialInductance, WiderWireHasLowerSelfInductance) {
  const double narrow = self_partial_inductance(um(1000), um(1), um(1));
  const double wide = self_partial_inductance(um(1000), um(10), um(1));
  EXPECT_LT(wide, narrow);
}

TEST(PartialInductance, MutualDecaysWithDistance) {
  const double l = um(1000);
  const double m2 = mutual_partial_inductance(l, l, -l, um(2));
  const double m10 = mutual_partial_inductance(l, l, -l, um(10));
  const double m100 = mutual_partial_inductance(l, l, -l, um(100));
  EXPECT_GT(m2, m10);
  EXPECT_GT(m10, m100);
  EXPECT_GT(m100, 0.0);
}

TEST(PartialInductance, MutualBelowGeometricMean) {
  // Passivity requires |M| <= sqrt(L1 L2); at the closest physical spacing
  // (GMD clamp) the mutual approaches but does not exceed the self term.
  const double l = um(1000), w = um(1), t = um(1);
  const double self = self_partial_inductance(l, w, t);
  const double m = mutual_partial_inductance(l, l, -l, self_gmd(w, t));
  EXPECT_LE(m, self * (1.0 + 1e-12));
}

TEST(PartialInductance, DisjointCollinearSegmentsPositiveMutual) {
  // Two collinear 100um segments separated by 10um gap.
  const double m = mutual_partial_inductance(um(100), um(100), um(10),
                                             self_gmd(um(1), um(1)));
  EXPECT_GT(m, 0.0);
}

TEST(PartialInductance, OrientationSign) {
  geom::Segment s, t;
  s.a = {0, 0};
  s.b = {um(100), 0};
  s.width = s.thickness = um(1);
  t = s;
  t.a = {0, um(5)};
  t.b = {um(100), um(5)};
  const double same = mutual_between(s, t);
  std::swap(t.a, t.b);  // reverse current direction
  const double opposite = mutual_between(s, t);
  EXPECT_GT(same, 0.0);
  EXPECT_NEAR(opposite, -same, 1e-18);
}

TEST(PartialInductance, OrthogonalIsZero) {
  geom::Segment s, t;
  s.a = {0, 0};
  s.b = {um(100), 0};
  s.width = s.thickness = um(1);
  t.a = {um(50), um(5)};
  t.b = {um(50), um(105)};
  t.width = t.thickness = um(1);
  EXPECT_DOUBLE_EQ(mutual_between(s, t), 0.0);
}

TEST(PartialInductance, MatrixIsSymmetricPositiveDefinite) {
  // A bus of parallel wires: the canonical PEEC matrix must be SPD.
  std::vector<geom::Segment> segs;
  for (int i = 0; i < 6; ++i) {
    geom::Segment s;
    s.a = {0, i * um(3)};
    s.b = {um(500), i * um(3)};
    s.width = um(1);
    s.thickness = um(1);
    segs.push_back(s);
  }
  const la::Matrix l = build_partial_inductance_matrix(segs);
  EXPECT_TRUE(test::is_symmetric(l));
  EXPECT_TRUE(la::is_positive_definite(l));
}

TEST(PartialInductance, MatrixPsdWithMixedDirectionsAndOverlaps) {
  // Chained collinear segments plus reversed neighbours: a stress case for
  // the GMD clamping.
  std::vector<geom::Segment> segs;
  for (int i = 0; i < 4; ++i) {
    geom::Segment s;
    s.a = {i * um(100), 0};
    s.b = {(i + 1) * um(100), 0};
    s.width = um(2);
    s.thickness = um(1);
    segs.push_back(s);
  }
  geom::Segment rev;
  rev.a = {um(400), um(2)};
  rev.b = {0, um(2)};
  rev.width = um(2);
  rev.thickness = um(1);
  segs.push_back(rev);
  const la::Matrix l = build_partial_inductance_matrix(segs);
  EXPECT_TRUE(la::is_positive_definite(l));
}

TEST(PartialInductance, WindowLimitsComputedTerms) {
  std::vector<geom::Segment> segs;
  for (int i = 0; i < 3; ++i) {
    geom::Segment s;
    s.a = {0, i * um(100)};
    s.b = {um(500), i * um(100)};
    s.width = s.thickness = um(1);
    segs.push_back(s);
  }
  const la::Matrix full = build_partial_inductance_matrix(segs);
  const la::Matrix windowed =
      build_partial_inductance_matrix(segs, {.window = um(150)});
  EXPECT_NE(full(0, 2), 0.0);
  EXPECT_EQ(windowed(0, 2), 0.0);       // 200um apart: outside window
  EXPECT_EQ(windowed(0, 1), full(0, 1));  // 100um apart: kept
}

TEST(Resistance, SheetModel) {
  geom::Segment s;
  s.a = {0, 0};
  s.b = {um(100), 0};
  s.width = um(2);
  s.layer = 6;
  const geom::Technology tech = geom::default_tech();
  // 50 squares x 0.02 ohm/sq
  EXPECT_NEAR(segment_resistance(s, tech), 50 * 0.02, 1e-12);
}

TEST(Resistance, ViaCutsInParallel) {
  const geom::Technology tech = geom::default_tech();
  geom::Via v{{0, 0}, 5, 6, 4, 0};
  EXPECT_NEAR(via_resistance(v, tech), tech.via_resistance / 4.0, 1e-12);
  geom::Via stack{{0, 0}, 1, 6, 1, 0};
  EXPECT_NEAR(via_resistance(stack, tech), tech.via_resistance * 5.0, 1e-12);
}

TEST(Capacitance, GroundCapScalesWithWidthAndLength) {
  const double c1 = ground_cap_per_length(um(1), um(1), um(2), 3.9);
  const double c2 = ground_cap_per_length(um(4), um(1), um(2), 3.9);
  EXPECT_GT(c2, c1);
  // Typical magnitude sanity: tens to ~200 aF/um.
  EXPECT_GT(c1 * um(1), 10e-18);
  EXPECT_LT(c1 * um(1), 500e-18);
}

TEST(Capacitance, CouplingDecaysWithSpacing) {
  const double close = coupling_cap_per_length(um(1), um(1), um(0.5), um(2), 3.9);
  const double far = coupling_cap_per_length(um(1), um(1), um(3), um(2), 3.9);
  EXPECT_GT(close, far);
  EXPECT_GT(far, 0.0);
}

TEST(Capacitance, SegmentCouplingUsesOverlapOnly) {
  geom::Segment a, b;
  a.a = {0, 0};
  a.b = {um(100), 0};
  a.width = a.thickness = um(1);
  a.layer = 6;
  b = a;
  b.a = {um(50), um(2)};
  b.b = {um(150), um(2)};
  const geom::Technology tech = geom::default_tech();
  const double c_half = segment_coupling_cap(a, b, tech);
  b.a = {0, um(2)};
  b.b = {um(100), um(2)};
  const double c_full = segment_coupling_cap(a, b, tech);
  EXPECT_NEAR(c_full, 2.0 * c_half, 1e-20);
}

TEST(Capacitance, DifferentLayersNoLateralCoupling) {
  geom::Segment a, b;
  a.a = {0, 0};
  a.b = {um(100), 0};
  a.width = a.thickness = um(1);
  a.layer = 6;
  b = a;
  b.layer = 5;
  b.a = {0, um(2)};
  b.b = {um(100), um(2)};
  EXPECT_DOUBLE_EQ(segment_coupling_cap(a, b, geom::default_tech()), 0.0);
}

TEST(Skin, SplitsWideConductor) {
  geom::Segment s;
  s.a = {0, 0};
  s.b = {um(100), 0};
  s.width = um(8);
  s.thickness = um(1);
  SkinSplitOptions opts;
  opts.max_width = um(2);
  const auto fils = split_for_skin(s, opts);
  EXPECT_EQ(fils.size(), 4u);
  double total_w = 0.0;
  for (const auto& f : fils) {
    total_w += f.width;
    EXPECT_DOUBLE_EQ(f.length(), s.length());
  }
  EXPECT_NEAR(total_w, s.width, 1e-15);
  // Filament centres straddle the parent centre-line symmetrically.
  double mean_y = 0.0;
  for (const auto& f : fils) mean_y += f.transverse();
  EXPECT_NEAR(mean_y / fils.size(), s.transverse(), 1e-12);
}

TEST(Skin, NarrowConductorUnsplit) {
  geom::Segment s;
  s.a = {0, 0};
  s.b = {um(100), 0};
  s.width = um(1);
  s.thickness = um(0.5);
  EXPECT_EQ(split_for_skin(s).size(), 1u);
}

TEST(Skin, SplitAllTracksParents) {
  geom::Segment narrow, wide;
  narrow.a = {0, 0};
  narrow.b = {um(10), 0};
  narrow.width = um(1);
  narrow.thickness = um(1);
  wide = narrow;
  wide.width = um(5);
  SkinSplitOptions opts;
  opts.max_width = um(2);
  std::vector<std::size_t> parent;
  const auto fils = split_all({narrow, wide}, parent, opts);
  EXPECT_EQ(fils.size(), 4u);  // 1 + 3
  EXPECT_EQ(parent[0], 0u);
  EXPECT_EQ(parent[1], 1u);
  EXPECT_EQ(parent.back(), 1u);
}

TEST(Extractor, FullExtraction) {
  geom::Layout l(geom::default_tech());
  const int a = l.add_net("a", geom::NetKind::Signal);
  const int b = l.add_net("b", geom::NetKind::Signal);
  l.add_wire(a, 6, {0, 0}, {um(200), 0}, um(1));
  l.add_wire(b, 6, {0, um(2)}, {um(200), um(2)}, um(1));
  l.add_via(a, {0, 0}, 5, 6);
  const Extraction x = ind::extract::extract(l);
  ASSERT_EQ(x.resistance.size(), 2u);
  ASSERT_EQ(x.ground_cap.size(), 2u);
  EXPECT_EQ(x.partial_l.rows(), 2u);
  EXPECT_GT(x.partial_l(0, 1), 0.0);
  ASSERT_EQ(x.coupling.size(), 1u);
  EXPECT_GT(x.coupling[0].value, 0.0);
  ASSERT_EQ(x.via_resistance.size(), 1u);
  EXPECT_EQ(x.num_mutual_terms(), 1u);
}

TEST(Extractor, RcOnlySkipsInductance) {
  geom::Layout l(geom::default_tech());
  const int a = l.add_net("a", geom::NetKind::Signal);
  l.add_wire(a, 6, {0, 0}, {um(200), 0}, um(1));
  ExtractionOptions opts;
  opts.extract_inductance = false;
  const Extraction x = ind::extract::extract(l, opts);
  EXPECT_TRUE(x.partial_l.empty());
}

TEST(Skin, SplitValidatesOptions) {
  geom::Segment s;
  s.a = {0, 0};
  s.b = {um(100), 0};
  s.width = um(8);
  s.thickness = um(1);
  SkinSplitOptions opts;
  opts.max_width = 0.0;
  EXPECT_THROW(split_for_skin(s, opts), std::invalid_argument);
  opts.max_width = um(2);
  opts.max_thickness = -um(1);
  EXPECT_THROW(split_for_skin(s, opts), std::invalid_argument);
  opts.max_thickness = um(2);
  opts.max_filaments_per_axis = 0;
  EXPECT_THROW(split_for_skin(s, opts), std::invalid_argument);
}

TEST(Skin, TinyMaxWidthClampsToCapWithoutOverflow) {
  // ceil(width / 1e-300) is ~1e295 — far beyond INT_MAX. The split factor
  // must clamp to the cap in floating point BEFORE any int conversion.
  geom::Segment s;
  s.a = {0, 0};
  s.b = {um(100), 0};
  s.width = um(8);
  s.thickness = um(1);
  SkinSplitOptions opts;
  opts.max_width = 1e-300;
  opts.max_thickness = 1e-300;
  opts.max_filaments_per_axis = 3;
  const auto fils = split_for_skin(s, opts);
  EXPECT_EQ(fils.size(), 9u);  // 3 x 3, exactly the cap per axis
}

TEST(PartialInductance, BatchMatchesScalarBitwise) {
  const double l1[] = {um(100), um(50), 0.0, um(80)};
  const double l2[] = {um(100), um(60), um(10), um(80)};
  const double gap[] = {um(5), -um(20), um(1), 0.0};
  const double gmd[] = {um(3), um(1), um(2), um(0.7)};
  double out[4];
  mutual_partial_inductance_batch(4, l1, l2, gap, gmd, out);
  for (int k = 0; k < 4; ++k)
    EXPECT_EQ(out[k], mutual_partial_inductance(l1[k], l2[k], gap[k], gmd[k]));
  const double bad_gmd[] = {um(3), 0.0, um(2), um(0.7)};
  EXPECT_THROW(mutual_partial_inductance_batch(4, l1, l2, gap, bad_gmd, out),
               std::invalid_argument);
}

TEST(PartialInductance, MutualBetweenWithGeometryMatches) {
  geom::Segment s, t;
  s.a = {0, 0};
  s.b = {um(100), 0};
  t.a = {um(20), um(5)};
  t.b = {um(140), um(5)};
  s.width = t.width = um(1);
  s.thickness = t.thickness = um(1);
  const auto g = geom::parallel_geometry(s, t);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(mutual_between(s, t, *g), mutual_between(s, t));
}

}  // namespace
