// Unit tests for the Section-4 sparsification schemes.
#include <gtest/gtest.h>

#include <cmath>

#include "extract/partial_inductance.hpp"
#include "la/cholesky.hpp"
#include "la/lu.hpp"
#include "sparsify/block_diagonal.hpp"
#include "sparsify/halo.hpp"
#include "sparsify/kmatrix.hpp"
#include "sparsify/shell.hpp"
#include "sparsify/stability.hpp"
#include "sparsify/truncation.hpp"

namespace {

using namespace ind;
using geom::um;

// A bus of n parallel wires with pitch spacing — the canonical test matrix.
std::vector<geom::Segment> parallel_bus(int n, double pitch,
                                        double len = um(1000)) {
  std::vector<geom::Segment> segs;
  for (int i = 0; i < n; ++i) {
    geom::Segment s;
    s.a = {0, i * pitch};
    s.b = {len, i * pitch};
    s.width = um(1);
    s.thickness = um(1);
    s.kind = geom::NetKind::Signal;
    segs.push_back(s);
  }
  return segs;
}

TEST(Truncation, KeepsLargeTermsOnly) {
  const auto segs = parallel_bus(6, um(3));
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  const auto full = sparsify::truncate(l, 0.0);
  const auto sparse = sparsify::truncate(l, 0.9);
  EXPECT_EQ(full.kept_mutual_count(), 15u);
  EXPECT_LT(sparse.kept_mutual_count(), 15u);
  EXPECT_EQ(sparsify::truncate(l, 10.0).kept_mutual_count(), 0u);
  // Diagonal preserved.
  for (std::size_t i = 0; i < l.rows(); ++i)
    EXPECT_DOUBLE_EQ(full.diag[i], l(i, i));
}

TEST(Truncation, CanDestroyPositiveDefiniteness) {
  // The paper's warning: find a threshold where the truncated matrix of a
  // tightly coupled bus goes indefinite.
  const auto segs = parallel_bus(10, um(2.2));
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  ASSERT_TRUE(la::is_positive_definite(l));
  bool found_indefinite = false;
  for (double ratio : {0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9}) {
    const auto t = sparsify::truncate(l, ratio);
    if (t.kept_mutual_count() == 0) continue;  // diagonal always PD
    if (!sparsify::analyze_stability(t).positive_definite) {
      found_indefinite = true;
      break;
    }
  }
  EXPECT_TRUE(found_indefinite)
      << "expected some truncation threshold to break PSD";
}

TEST(BlockDiagonal, GuaranteesPositiveDefinite) {
  const auto segs = parallel_bus(12, um(2.2));
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  const auto sections =
      sparsify::sections_by_strip(segs, geom::Axis::Y, um(7));
  const auto bd = sparsify::block_diagonal(l, sections);
  EXPECT_LT(bd.kept_mutual_count(), 66u);
  EXPECT_GT(bd.kept_mutual_count(), 0u);
  const auto report = sparsify::analyze_stability(bd);
  EXPECT_TRUE(report.positive_definite);
  EXPECT_GT(report.min_eigenvalue, 0.0);
}

TEST(BlockDiagonal, SectionsPartitionByStrip) {
  const auto segs = parallel_bus(6, um(10));
  const auto sections =
      sparsify::sections_by_strip(segs, geom::Axis::Y, um(25));
  EXPECT_EQ(sections.size(), 6u);
  EXPECT_EQ(sections[0], sections[1]);  // y=0,10 in strip 0
  EXPECT_NE(sections[0], sections[3]);  // y=30 in strip 1
}

TEST(BlockDiagonal, NoCrossSectionTerms) {
  const auto segs = parallel_bus(6, um(5));
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  const std::vector<int> sections{0, 0, 0, 1, 1, 1};
  const auto bd = sparsify::block_diagonal(l, sections);
  for (const auto& t : bd.terms)
    EXPECT_EQ(sections[t.i], sections[t.j]);
}

TEST(Shell, DropsBeyondRadiusAndStaysStable) {
  const auto segs = parallel_bus(10, um(4));
  const auto sh = sparsify::shell(segs, um(10));
  // Pairs farther than 10um have no term.
  for (const auto& t : sh.terms)
    EXPECT_LT(std::abs(static_cast<double>(t.i) - static_cast<double>(t.j)) *
                  um(4),
              um(10));
  const auto report = sparsify::analyze_stability(sh);
  EXPECT_TRUE(report.positive_definite);
}

TEST(Shell, ShiftsDiagonalDown) {
  const auto segs = parallel_bus(4, um(4));
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  const auto sh = sparsify::shell(segs, um(10));
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_LT(sh.diag[i], l(i, i));
    EXPECT_GT(sh.diag[i], 0.0);
  }
}

TEST(Shell, LargerRadiusKeepsMoreCoupling) {
  const auto segs = parallel_bus(8, um(4));
  const auto tight = sparsify::shell(segs, um(6));
  const auto wide = sparsify::shell(segs, um(30));
  EXPECT_LT(tight.kept_mutual_count(), wide.kept_mutual_count());
}

TEST(Halo, BoundedByPowerGroundNeighbours) {
  // signal, gnd, signal, signal: halo of seg 0 is bounded above by the gnd
  // line, so coupling 0-2 and 0-3 must be dropped, 0-1 kept.
  auto segs = parallel_bus(4, um(4));
  segs[1].kind = geom::NetKind::Ground;
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  const auto h = sparsify::halo(segs, l);
  bool has01 = false, has02 = false, has03 = false, has23 = false;
  for (const auto& t : h.terms) {
    if (t.i == 0 && t.j == 1) has01 = true;
    if (t.i == 0 && t.j == 2) has02 = true;
    if (t.i == 0 && t.j == 3) has03 = true;
    if (t.i == 2 && t.j == 3) has23 = true;
  }
  EXPECT_TRUE(has01);
  EXPECT_FALSE(has02);
  EXPECT_FALSE(has03);
  EXPECT_TRUE(has23);  // both above the gnd line, same halo
}

TEST(Halo, NoReturnsKeepsEverything) {
  const auto segs = parallel_bus(5, um(4));  // all signals
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  const auto h = sparsify::halo(segs, l);
  EXPECT_EQ(h.kept_mutual_count(), 10u);
}

TEST(KMatrix, InverseIsExactWithoutThreshold) {
  const auto segs = parallel_bus(5, um(3));
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  const auto k = sparsify::kmatrix_sparsify(l, 0.0);
  EXPECT_TRUE(k.use_kmatrix);
  // K * L = I
  const la::Matrix kd = k.to_dense();
  const la::Matrix prod = kd * l;
  for (std::size_t i = 0; i < l.rows(); ++i)
    for (std::size_t j = 0; j < l.cols(); ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(KMatrix, IsMoreLocalThanL) {
  // The paper's claim: K has higher locality, so relative off-diagonal decay
  // is faster. Compare the relative size of the farthest coupling.
  const auto segs = parallel_bus(10, um(3));
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  const la::Matrix k = sparsify::kmatrix_sparsify(l, 0.0).to_dense();
  const double l_far = std::abs(l(0, 9)) / std::sqrt(l(0, 0) * l(9, 9));
  const double k_far = std::abs(k(0, 9)) / std::sqrt(k(0, 0) * k(9, 9));
  EXPECT_LT(k_far, l_far);
}

TEST(KMatrix, TruncatedKStaysPositiveDefinite) {
  const auto segs = parallel_bus(10, um(2.5));
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  const auto k = sparsify::kmatrix_sparsify(l, 0.05);
  EXPECT_LT(k.kept_mutual_count(), 45u);
  const auto report = sparsify::analyze_stability(k);
  EXPECT_TRUE(report.positive_definite);
}

TEST(SparsifiedL, DensityAndDenseRoundTrip) {
  const auto segs = parallel_bus(4, um(3));
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);
  const auto full = sparsify::truncate(l, 0.0);
  EXPECT_NEAR(full.density(), 1.0, 1e-12);
  const la::Matrix rt = full.to_dense();
  for (std::size_t i = 0; i < l.rows(); ++i)
    for (std::size_t j = 0; j < l.cols(); ++j)
      EXPECT_DOUBLE_EQ(rt(i, j), l(i, j));
}

TEST(ApplyToNetlist, StampsTermsAndDiagonal) {
  circuit::Netlist nl;
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  std::vector<std::size_t> map;
  map.push_back(nl.add_inductor(a, circuit::kGround, 1e-9));
  map.push_back(nl.add_inductor(b, circuit::kGround, 1e-9));
  sparsify::SparsifiedL spec;
  spec.diag = {2e-9, 3e-9};
  spec.terms = {{0, 1, 0.5e-9}};
  sparsify::apply_to_netlist(spec, nl, map);
  EXPECT_DOUBLE_EQ(nl.inductors()[0].henries, 2e-9);
  EXPECT_DOUBLE_EQ(nl.inductors()[1].henries, 3e-9);
  ASSERT_EQ(nl.mutuals().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.mutuals()[0].henries, 0.5e-9);
}

TEST(ApplyToNetlist, KFormBuildsGroup) {
  circuit::Netlist nl;
  const auto a = nl.node("a");
  std::vector<std::size_t> map;
  map.push_back(nl.add_inductor(a, circuit::kGround, 1e-9));
  map.push_back(nl.add_inductor(a, circuit::kGround, 1e-9));
  sparsify::SparsifiedL spec;
  spec.use_kmatrix = true;
  spec.diag = {1e-9, 1e-9};
  spec.k_entries = {{0, 0, 1e9}, {1, 1, 1e9}, {0, 1, -1e8}};
  sparsify::apply_to_netlist(spec, nl, map);
  ASSERT_EQ(nl.kmatrix_groups().size(), 1u);
  EXPECT_EQ(nl.kmatrix_groups()[0].entries.size(), 4u);  // symmetric expand
  EXPECT_TRUE(nl.inductor_in_kgroup(0));
}

TEST(Stability, ReportsEigenvalues) {
  la::Matrix good{{2, 0}, {0, 3}};
  const auto r = sparsify::analyze_matrix(good);
  EXPECT_TRUE(r.positive_definite);
  EXPECT_NEAR(r.min_eigenvalue, 2.0, 1e-6);
  EXPECT_NEAR(r.max_eigenvalue, 3.0, 1e-6);
  la::Matrix bad{{1, 2}, {2, 1}};
  EXPECT_FALSE(sparsify::analyze_matrix(bad).positive_definite);
  EXPECT_LT(sparsify::analyze_matrix(bad).min_eigenvalue, 0.0);
}

}  // namespace
