// Unit tests for the linear-algebra substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "govern/budget.hpp"
#include "la/amd.hpp"
#include "la/cholesky.hpp"
#include "la/dense_matrix.hpp"
#include "la/eig.hpp"
#include "la/lu.hpp"
#include "la/qr.hpp"
#include "la/sparse.hpp"
#include "la/sparse_lu.hpp"
#include "robust/recovery.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "elimination_oracle.hpp"
#include "matrix_checks.hpp"

namespace {

using namespace ind::la;

TEST(DenseMatrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

TEST(DenseMatrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(DenseMatrix, Identity) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(DenseMatrix, Multiply) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(DenseMatrix, Transpose) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(DenseMatrix, ApplyAndApplyTransposed) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  const Vector y = a.apply({1.0, -1.0});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
  const Vector z = a.apply_transposed({1.0, 0.0, 1.0});
  ASSERT_EQ(z.size(), 2u);
  EXPECT_DOUBLE_EQ(z[0], 6.0);
  EXPECT_DOUBLE_EQ(z[1], 8.0);
}

TEST(DenseMatrix, SymmetryCheck) {
  Matrix s{{2, 1}, {1, 2}};
  EXPECT_TRUE(ind::test::is_symmetric(s));
  s(0, 1) = 1.5;
  EXPECT_FALSE(ind::test::is_symmetric(s));
}

TEST(Lu, SolvesRandomSystem) {
  Matrix a{{4, -2, 1}, {-2, 4, -2}, {1, -2, 4}};
  const Vector x_ref{1.0, 2.0, 3.0};
  const Vector b = a.apply(x_ref);
  const Vector x = solve(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a{{0, 1}, {1, 0}};
  const Vector x = solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Lu, ThrowsOnSingular) {
  Matrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(LU lu(a), SingularMatrixError);
}

TEST(Lu, ComplexSolve) {
  CMatrix a(2, 2);
  a(0, 0) = {1, 1};
  a(0, 1) = {0, 1};
  a(1, 0) = {0, -1};
  a(1, 1) = {2, 0};
  const CVector x_ref{{1, 2}, {3, -1}};
  const CVector b = a.apply(x_ref);
  const CVector x = solve(a, b);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(x[i].real(), x_ref[i].real(), 1e-12);
    EXPECT_NEAR(x[i].imag(), x_ref[i].imag(), 1e-12);
  }
}

TEST(Lu, Inverse) {
  Matrix a{{4, 7}, {2, 6}};
  const Matrix inv = inverse(a);
  const Matrix prod = a * inv;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

TEST(Cholesky, FactorsSpdMatrix) {
  Matrix a{{4, 2}, {2, 3}};
  const auto f = Cholesky::factor(a);
  ASSERT_TRUE(f.has_value());
  const Vector x = f->solve({8.0, 7.0});
  const Vector b = a.apply(x);
  EXPECT_NEAR(b[0], 8.0, 1e-12);
  EXPECT_NEAR(b[1], 7.0, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::factor(a).has_value());
  EXPECT_FALSE(is_positive_definite(a));
  EXPECT_TRUE(is_positive_definite(Matrix{{2, 1}, {1, 2}}));
}

TEST(Cholesky, MinEigenvalueBisect) {
  Matrix a{{1, 2}, {2, 1}};
  EXPECT_NEAR(min_eigenvalue_bisect(a, 1.0), -1.0, 1e-9);
  Matrix b{{3, 0}, {0, 5}};
  EXPECT_NEAR(min_eigenvalue_bisect(b, 5.0), 3.0, 1e-9);
}

TEST(Qr, OrthonormalizesColumns) {
  Matrix a{{1, 1}, {1, 0}, {0, 1}};
  const QrResult r = orthonormalize(a);
  EXPECT_EQ(r.rank, 2u);
  // Q^T Q = I
  for (std::size_t i = 0; i < r.rank; ++i) {
    for (std::size_t j = 0; j < r.rank; ++j) {
      double dot = 0.0;
      for (std::size_t k = 0; k < 3; ++k) dot += r.q(k, i) * r.q(k, j);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(Qr, DeflatesDependentColumns) {
  Matrix a{{1, 2}, {1, 2}, {1, 2}};  // second column is 2x the first
  const QrResult r = orthonormalize(a);
  EXPECT_EQ(r.rank, 1u);
}

TEST(Qr, OrthonormalizeAgainstExistingBasis) {
  Matrix q{{1}, {0}, {0}};
  Matrix a{{1}, {1}, {0}};
  const QrResult r = orthonormalize_against(a, q);
  ASSERT_EQ(r.rank, 1u);
  EXPECT_NEAR(r.q(0, 0), 0.0, 1e-12);  // component along q removed
  EXPECT_NEAR(std::abs(r.q(1, 0)), 1.0, 1e-12);
}

TEST(Qr, Hcat) {
  Matrix a{{1}, {2}};
  Matrix b{{3}, {4}};
  const Matrix c = hcat(a, b);
  EXPECT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(1, 1), 4.0);
}

TEST(Sparse, TripletToCscMergesDuplicates) {
  TripletMatrix t(3, 3);
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.0);  // duplicate stamp
  t.add(2, 1, 5.0);
  const CscMatrix a(t);
  EXPECT_EQ(a.nnz(), 2u);
  const Matrix d = a.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(d(2, 1), 5.0);

  // Duplicates whose sum depends on the order they are added in: the
  // golden values are the compression's historic order, which the
  // assembly plan (CscAssembly) must keep. Column 1 is long enough for
  // std::sort to leave insertion sort, so equal rows may reorder.
  TripletMatrix u(5, 2);
  u.add(3, 0, 1e16);
  u.add(3, 0, 1.0);
  u.add(1, 0, 2.0);
  u.add(3, 0, -1e16);
  const double mags[] = {1e16, 1.0, -1e16, 3.0, -1.0, 1e-16};
  for (std::size_t k = 0; k < 40; ++k)
    u.add((7 * k) % 5, 1, mags[k % 6] * static_cast<double>(1 + k % 4));
  const CscMatrix b(u);
  ASSERT_EQ(b.nnz(), 7u);
  EXPECT_EQ(b.values()[1], 0.0) << b.values()[1];
  const double golden[] = {30000000000000008.0, -9999999999999984.0,
                           10000000000000016.0, -19999999999999984.0,
                           -29999999999999988.0};
  for (std::size_t r = 0; r < 5; ++r)
    EXPECT_EQ(b.values()[2 + r], golden[r]) << r << ": " << b.values()[2 + r];
}

TEST(Sparse, Apply) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 2.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 3.0);
  const CscMatrix a(t);
  const Vector y = a.apply({1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(SparseLu, MatchesDenseSolve) {
  TripletMatrix t(4, 4);
  const double vals[4][4] = {
      {4, -1, 0, -1}, {-1, 4, -1, 0}, {0, -1, 4, -1}, {-1, 0, -1, 4}};
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      if (vals[i][j] != 0) t.add(i, j, vals[i][j]);
  const CscMatrix a(t);
  SparseLu lu(a);
  const Vector b{1.0, 2.0, 3.0, 4.0};
  const Vector x = lu.solve(b);
  const Vector x_ref = solve(t.to_dense(), b);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-12);
}

TEST(SparseLu, PivotsOnZeroDiagonal) {
  TripletMatrix t(2, 2);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  SparseLu lu(CscMatrix{t});
  const Vector x = lu.solve({5.0, 6.0});
  EXPECT_NEAR(x[0], 6.0, 1e-14);
  EXPECT_NEAR(x[1], 5.0, 1e-14);
}

TEST(SparseLu, ThrowsOnSingular) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 0, 1.0);  // column 1 empty -> singular
  EXPECT_THROW(SparseLu lu{CscMatrix{t}}, SingularMatrixError);
}

TEST(SparseLu, LargeRandomGrid) {
  // 2-D Laplacian on a 20x20 grid: well-conditioned, sparse, SPD.
  const int n = 20;
  TripletMatrix t(n * n, n * n);
  auto id = [&](int i, int j) { return static_cast<std::size_t>(i * n + j); };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      t.add(id(i, j), id(i, j), 4.0 + 0.01 * (i + j));
      if (i > 0) t.add(id(i, j), id(i - 1, j), -1.0);
      if (i < n - 1) t.add(id(i, j), id(i + 1, j), -1.0);
      if (j > 0) t.add(id(i, j), id(i, j - 1), -1.0);
      if (j < n - 1) t.add(id(i, j), id(i, j + 1), -1.0);
    }
  }
  const CscMatrix a(t);
  SparseLu lu(a);
  Vector x_ref(static_cast<std::size_t>(n * n));
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    x_ref[i] = std::sin(0.1 * static_cast<double>(i));
  const Vector b = a.apply(x_ref);
  const Vector x = lu.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-9);
}

// Unsymmetric, with a zero diagonal entry so the sparse LU must pivot off
// the diagonal: exercises both permutations in the transposed solve.
TripletMatrix unsymmetric_stamps() {
  TripletMatrix t(5, 5);
  const double vals[5][5] = {{4, -1, 0, 0, 2},
                             {0, 0, 3, -1, 0},
                             {1, 0, 5, 0, -2},
                             {0, 2, 0, 6, 1},
                             {-1, 0, 0, 1, 3}};
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      if (vals[i][j] != 0) t.add(i, j, vals[i][j]);
  return t;
}

TEST(SparseLu, SolveTransposedMatchesDense) {
  const TripletMatrix t = unsymmetric_stamps();
  const SparseLu lu{CscMatrix(t)};
  const LU dense(t.to_dense());
  const Vector b{1.0, -2.0, 0.5, 3.0, -1.0};
  const Vector x = lu.solve_transposed(b);
  const Vector x_ref = dense.solve_transposed(b);
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_NEAR(x[i], x_ref[i], 1e-12);
  // And it really is the transposed system: A^T x = b.
  const Vector atx = t.to_dense().transposed().apply(x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(atx[i], b[i], 1e-12);
}

TEST(SparseLu, HagerEstimateMatchesDense) {
  const TripletMatrix t = unsymmetric_stamps();
  const SparseLu lu{CscMatrix(t)};
  const LU dense(t.to_dense());
  const double sparse_est = inverse_norm1_estimate<double>(
      5, [&](const Vector& b) { return lu.solve(b); },
      [&](const Vector& b) { return lu.solve_transposed(b); });
  const double dense_est = dense.condition_estimate() / dense.norm1();
  EXPECT_GT(sparse_est, 0.0);
  EXPECT_NEAR(sparse_est, dense_est, 1e-9 * dense_est);
}

TEST(Sparse, AddScaledMergesPatterns) {
  TripletMatrix ta(3, 3), tb(3, 3);
  ta.add(0, 0, 1.0);
  ta.add(2, 1, 4.0);
  tb.add(0, 0, 2.0);
  tb.add(1, 1, 3.0);
  const CscMatrix s = add_scaled(CscMatrix(ta), 0.5, CscMatrix(tb));
  EXPECT_EQ(s.nnz(), 3u);
  const Matrix d = s.to_dense();
  EXPECT_EQ(d(0, 0), 2.0);
  EXPECT_EQ(d(1, 1), 1.5);
  EXPECT_EQ(d(2, 1), 4.0);
  EXPECT_THROW(add_scaled(CscMatrix(ta), 1.0, CscMatrix(TripletMatrix(2, 3))),
               std::invalid_argument);
}

TEST(Sparse, TimesBlockMatchesColumnApply) {
  const TripletMatrix t = unsymmetric_stamps();
  const CscMatrix a(t);
  Matrix x(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    x(i, 0) = 1.0 + static_cast<double>(i);
    x(i, 1) = std::cos(static_cast<double>(i));
  }
  const Matrix y = a * x;
  for (std::size_t c = 0; c < 2; ++c) {
    Vector col(5);
    for (std::size_t i = 0; i < 5; ++i) col[i] = x(i, c);
    const Vector yc = a.apply(col);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(y(i, c), yc[i]);
  }
}

TEST(Eig, DominantEigenvalue) {
  Matrix a{{2, 0}, {0, 5}};
  EXPECT_NEAR(dominant_eigenvalue(a), 5.0, 1e-7);
}

}  // namespace

// ---------------------------------------------------------------------------
// Additional linear-algebra coverage.
// ---------------------------------------------------------------------------

namespace {

using namespace ind::la;

TEST(Lu, SolvesMatrixRhs) {
  Matrix a{{4, 1}, {1, 3}};
  Matrix b{{1, 0, 2}, {0, 1, 4}};
  const Matrix x = LU(a).solve(b);
  const Matrix check = a * x;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(check(i, j), b(i, j), 1e-12);
}

TEST(Cholesky, LowerTriangularStructure) {
  Matrix a{{4, 2, 0}, {2, 5, 1}, {0, 1, 3}};
  const auto f = Cholesky::factor(a);
  ASSERT_TRUE(f.has_value());
  const Matrix& l = f->lower();
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = i + 1; j < 3; ++j)
      EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  // L L^T == A.
  const Matrix rebuilt = l * l.transposed();
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(rebuilt(i, j), a(i, j), 1e-12);
}

TEST(Sparse, FillCountAndOutOfRange) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  EXPECT_EQ(t.entry_count(), 2u);
  SparseLu lu{CscMatrix{t}};
  EXPECT_GE(lu.fill_nnz(), 2u);
  TripletMatrix bad(2, 2);
  bad.add(5, 0, 1.0);
  EXPECT_THROW(CscMatrix{bad}, std::out_of_range);
}

TEST(Sparse, ApplySizeMismatchThrows) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  const CscMatrix a(t);
  EXPECT_THROW(a.apply({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Qr, EmptyInputYieldsEmptyBasis) {
  const QrResult r = orthonormalize(Matrix(4, 0));
  EXPECT_EQ(r.rank, 0u);
}

}  // namespace

// ---------------------------------------------------------------------------
// AMD ordering and symbolic-reuse refactorisation.
// ---------------------------------------------------------------------------

namespace {

using namespace ind::la;

CscMatrix grid_laplacian(int n, double shift = 0.0) {
  TripletMatrix t(static_cast<std::size_t>(n * n),
                  static_cast<std::size_t>(n * n));
  auto id = [&](int i, int j) { return static_cast<std::size_t>(i * n + j); };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      t.add(id(i, j), id(i, j), 4.0 + 0.01 * (i + j) + shift);
      if (i > 0) t.add(id(i, j), id(i - 1, j), -1.0 - shift * 0.1);
      if (i < n - 1) t.add(id(i, j), id(i + 1, j), -1.0);
      if (j > 0) t.add(id(i, j), id(i, j - 1), -1.0 + shift * 0.05);
      if (j < n - 1) t.add(id(i, j), id(i, j + 1), -1.0);
    }
  }
  return CscMatrix(t);
}

bool is_permutation(const std::vector<std::size_t>& p, std::size_t n) {
  if (p.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (std::size_t v : p) {
    if (v >= n || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

TEST(Amd, ValidAndDeterministicPermutation) {
  const CscMatrix a = grid_laplacian(12);
  const std::vector<std::size_t> p1 = amd_order(a);
  EXPECT_TRUE(is_permutation(p1, a.rows()));
  // Pure function of the pattern: same pattern (different values) -> the
  // exact same order, run after run.
  const std::vector<std::size_t> p2 = amd_order(grid_laplacian(12, 0.5));
  EXPECT_EQ(p1, p2);
}

TEST(Amd, ArrowMatrixEliminatesHubLast) {
  // Arrow matrix: dense first row/column + diagonal. Natural order
  // eliminates the hub first and fills the whole matrix; minimum degree
  // must postpone the hub to the end, giving zero fill.
  const std::size_t n = 16;
  TripletMatrix t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 10.0);
    if (i > 0) {
      t.add(0, i, 0.1);
      t.add(i, 0, 0.1);
    }
  }
  const CscMatrix a(t);
  const std::vector<std::size_t> p = amd_order(a);
  ASSERT_TRUE(is_permutation(p, n));
  // The hub keeps maximum degree until only one leaf is left, so it lands
  // in one of the last two elimination slots (smallest-index tie-break can
  // put the final leaf after it).
  std::size_t hub_pos = n;
  for (std::size_t k = 0; k < n; ++k)
    if (p[k] == 0) hub_pos = k;
  EXPECT_GE(hub_pos, n - 2);
  // Diagonally-dominant, so pivots stay on the diagonal: the factor's
  // stored pattern equals A's pattern exactly when the hub goes last.
  SparseLu lu(a);
  EXPECT_EQ(lu.fill_nnz(), a.nnz());
}

TEST(Amd, LastNodesComeLastInGivenOrder) {
  const CscMatrix a = grid_laplacian(10);
  const std::vector<std::size_t> last = {57, 3, 99, 12};
  const std::vector<std::size_t> p = amd_order(a, last);
  ASSERT_TRUE(is_permutation(p, a.rows()));
  EXPECT_TRUE(std::equal(last.begin(), last.end(), p.end() - 4));
  // A pure function of the pattern and `last`: new values, same order.
  EXPECT_EQ(amd_order(grid_laplacian(10, 0.5), last), p);
  EXPECT_THROW(amd_order(a, {3, 3}), std::invalid_argument);
  EXPECT_THROW(amd_order(a, {100}), std::invalid_argument);
}

TEST(Amd, GridFillWithinTenPercentOfExactMinimumDegree) {
  for (const int side : {12, 20}) {
    const CscMatrix a = grid_laplacian(side);
    const auto g = ind::test::symmetric_graph(a);
    const std::size_t exact = ind::test::elimination_fill(g);
    const std::size_t amd = ind::test::elimination_fill(g, amd_order(a));
    EXPECT_LE(static_cast<double>(amd), 1.1 * static_cast<double>(exact))
        << side << "x" << side << " grid";
  }
}

TEST(SparseLu, AmdReducesGridFill) {
  const CscMatrix a = grid_laplacian(20);
  SparseLu lu(a);
  // Natural-order factorisation of a 20x20 grid Laplacian carries a full
  // bandwidth-20 profile (> 15k stored entries). AMD must do much better.
  EXPECT_LT(lu.fill_nnz(), 12000u);
  EXPECT_GE(lu.fill_nnz(), a.nnz());
}

TEST(SparseLu, RefactorMatchesFromScratchBitwise) {
  const CscMatrix a0 = grid_laplacian(15);
  const CscMatrix a1 = grid_laplacian(15, 0.25);  // same pattern, new values

  SparseLu reused(a0);
  EXPECT_TRUE(reused.symbolic().factored());
  reused.refactor(a1);

  const SparseLu scratch(a1);
  Vector b(a1.rows());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = std::cos(0.3 * static_cast<double>(i));
  const Vector x_reused = reused.solve(b);
  const Vector x_scratch = scratch.solve(b);
  ASSERT_EQ(x_reused.size(), x_scratch.size());
  for (std::size_t i = 0; i < x_reused.size(); ++i)
    EXPECT_EQ(x_reused[i], x_scratch[i]);  // bitwise, not approximate
}

TEST(SparseLu, SharedSymbolicAcrossInstances) {
  const CscMatrix a0 = grid_laplacian(10);
  const CscMatrix a1 = grid_laplacian(10, 0.5);
  SparseLu first(a0);
  // A second factorisation constructed from the first one's symbolic state
  // skips straight to the numeric-only pass and stays bitwise identical.
  SparseLu second(a1, first.symbolic());
  const SparseLu scratch(a1);
  Vector b(a1.rows(), 1.0);
  const Vector x = second.solve(b);
  const Vector x_ref = scratch.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_ref[i]);
}

TEST(SparseLu, PivotDriftFallsBackToFullFactorisation) {
  // A1 pivots on the diagonal of column 0 (diagonal preference); A2 keeps
  // the same pattern but zeroes the diagonal, forcing the off-diagonal
  // pivot. Refactoring A1's factor with A2's values must detect the drift
  // and rerun the full factorisation, still matching from-scratch.
  TripletMatrix t1(2, 2), t2(2, 2);
  t1.add(0, 0, 1.0); t1.add(1, 0, 2.0); t1.add(0, 1, 4.0); t1.add(1, 1, 1.0);
  t2.add(0, 0, 0.0); t2.add(1, 0, 2.0); t2.add(0, 1, 4.0); t2.add(1, 1, 0.0);
  const CscMatrix a1(t1), a2(t2);

  SparseLu lu(a1);
  auto& drift =
      ind::runtime::MetricsRegistry::instance().counter(
          "factor.sparse_lu.pivot_drift");
  const auto drift_before = drift.value.load();
  lu.refactor(a2);
  EXPECT_EQ(drift.value.load(), drift_before + 1);
  const SparseLu scratch(a2);
  const Vector b{1.0, 2.0};
  const Vector x = lu.solve(b);
  const Vector x_ref = scratch.solve(b);
  EXPECT_EQ(x[0], x_ref[0]);
  EXPECT_EQ(x[1], x_ref[1]);
}

TEST(SparseLu, RefactorWithNewPatternReanalyses) {
  const CscMatrix a = grid_laplacian(8);
  SparseLu lu(a);

  TripletMatrix t(4, 4);  // entirely different matrix, different size
  t.add(0, 0, 2.0); t.add(1, 1, 3.0); t.add(2, 2, 4.0); t.add(3, 3, 5.0);
  t.add(0, 3, 1.0); t.add(3, 0, 1.0);
  const CscMatrix d(t);
  lu.refactor(d);
  EXPECT_EQ(lu.size(), 4u);
  EXPECT_TRUE(lu.symbolic().matches_pattern(d));

  const Vector b{1.0, 3.0, 4.0, 5.0};
  const Vector x = lu.solve(b);
  const Vector x_ref = SparseLu(d).solve(b);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(x[i], x_ref[i]);
}

TEST(SparseLu, RefactorThrowsOnSingularAndRecovers) {
  const CscMatrix a = grid_laplacian(6);
  SparseLu lu(a);
  TripletMatrix t(a.rows(), a.cols());
  // Same pattern, but all values zero: singular.
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t k = a.col_ptr()[j]; k < a.col_ptr()[j + 1]; ++k)
      t.add(a.row_idx()[k], j, 0.0);
  const CscMatrix zeros(t);
  EXPECT_THROW(lu.refactor(zeros), SingularMatrixError);
  // The object is reusable after a successful refactorisation.
  lu.refactor(a);
  Vector b(a.rows(), 1.0);
  const Vector x = lu.solve(b);
  const Vector x_ref = SparseLu(a).solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_ref[i]);
}

// Same pattern as `a`, with the values of columns `cols` scaled by `f`.
CscMatrix with_columns_scaled(const CscMatrix& a,
                              const std::vector<std::size_t>& cols, double f) {
  TripletMatrix t(a.rows(), a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const bool scaled = std::find(cols.begin(), cols.end(), j) != cols.end();
    for (std::size_t k = a.col_ptr()[j]; k < a.col_ptr()[j + 1]; ++k)
      t.add(a.row_idx()[k], j, scaled ? f * a.values()[k] : a.values()[k]);
  }
  return CscMatrix(t);
}

std::int64_t refactor_columns() {
  return ind::runtime::MetricsRegistry::instance()
      .counter("factor.sparse_lu.refactor_columns")
      .value.load();
}

void expect_bitwise_equal_solves(const SparseLu& x, const SparseLu& y) {
  ASSERT_EQ(x.size(), y.size());
  Vector b(x.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = std::sin(0.7 * static_cast<double>(i) + 0.2);
  const Vector sx = x.solve(b), sy = y.solve(b);
  const Vector tx = x.solve_transposed(b), ty = y.solve_transposed(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(sx[i], sy[i]) << i;
    EXPECT_EQ(tx[i], ty[i]) << i;
  }
}

TEST(SparseLu, RestartRefactorRecomputesOnlyChangedTrailingColumns) {
  const CscMatrix a0 = grid_laplacian(12);
  const std::vector<std::size_t> last = {40, 7, 101};
  SparseLu lu(a0, SparseLuSymbolic(a0, last));
  const std::int64_t before = refactor_columns();
  lu.refactor(a0);  // unchanged values: nothing to recompute
  EXPECT_EQ(refactor_columns(), before);

  // Only the last two pinned columns change: the sweep restarts there.
  const CscMatrix a1 = with_columns_scaled(a0, {7, 101}, 1.5);
  lu.refactor(a1);
  EXPECT_EQ(refactor_columns(), before + 2);
  const SparseLu fresh(a1, SparseLuSymbolic(a1, last));
  EXPECT_EQ(lu.fill_nnz(), fresh.fill_nnz());
  expect_bitwise_equal_solves(lu, fresh);
}

TEST(SparseLu, RestartRefactorAtStepZeroRecomputesEveryColumn) {
  const CscMatrix a0 = grid_laplacian(12);
  SparseLu lu(a0);
  const CscMatrix a1 =
      with_columns_scaled(a0, {lu.symbolic().order().front()}, 1.5);
  const std::int64_t before = refactor_columns();
  lu.refactor(a1);
  EXPECT_EQ(refactor_columns(), before + static_cast<std::int64_t>(a1.rows()));
  expect_bitwise_equal_solves(lu, SparseLu(a1));
}

TEST(SparseLu, NewPatternKeepsLast) {
  const CscMatrix a = grid_laplacian(8);
  const std::vector<std::size_t> last = {5, 60};
  SparseLu lu(a, SparseLuSymbolic(a, last));
  // One extra entry changes the pattern, as the gmin rung's diagonal shift
  // can: the re-analysis keeps `last`.
  TripletMatrix t(a.rows(), a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t k = a.col_ptr()[j]; k < a.col_ptr()[j + 1]; ++k)
      t.add(a.row_idx()[k], j, a.values()[k]);
  t.add(0, 63, 0.5);
  const CscMatrix b(t);
  lu.refactor(b);
  EXPECT_TRUE(lu.symbolic().matches_pattern(b));
  EXPECT_EQ(lu.symbolic().last(), last);
  const auto& order = lu.symbolic().order();
  EXPECT_TRUE(std::equal(last.begin(), last.end(), order.end() - 2));
  expect_bitwise_equal_solves(lu, SparseLu(b, SparseLuSymbolic(b, last)));
}

// ---------------------------------------------------------------------------
// Bitwise pins of the sparse solves. The golden digests were captured from
// the column-scatter solves the stored form replaced; the matrices and right
// sides come from an LCG (no libm), so a digest moves only when the
// factorisation's or the solves' own arithmetic does.
// ---------------------------------------------------------------------------

struct Lcg {
  std::uint64_t s;
  double next() {  // uniform in [-0.5, 0.5)
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(s >> 11) / static_cast<double>(1ULL << 53) -
           0.5;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>((next() + 0.5) * static_cast<double>(n));
  }
};

// FNV-1a over the bit patterns.
std::uint64_t bits_digest(const Vector& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double d : v) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// An n x n matrix mixing the shapes the stored form splits differently: a
// dense block on [0, block) and another on the last `block` unknowns (long
// runs in L and U), a band of half-width 2, rows that hold only their
// diagonal (singletons), columns whose diagonal is too small to pivot on
// (off-diagonal pivots), and two random couplings per column.
CscMatrix pinned_matrix(std::size_t n, std::size_t block, std::uint64_t seed) {
  Lcg r{seed};
  TripletMatrix t(n, n);
  auto lone = [&](std::size_t i) { return i >= block && i < n - block && i % 7 == 3; };
  auto weak = [](std::size_t j) { return j % 11 == 5; };
  for (std::size_t j = 0; j < n; ++j) {
    const bool dense_col = j < block || j >= n - block;
    for (std::size_t i = 0; i < n; ++i) {
      const bool same_block =
          (i < block && j < block) || (i >= n - block && j >= n - block);
      const bool band = (i > j ? i - j : j - i) <= 2;
      if (i == j) {
        t.add(i, j, weak(j) ? 1e-7 * r.next() : 3.0 + r.next());
      } else if (!lone(i) && (same_block || band)) {
        t.add(i, j, r.next());
      }
    }
    for (int c = 0; c < 2 && !dense_col; ++c) {
      const std::size_t i = r.below(n);
      if (!lone(i)) t.add(i, j, r.next());
    }
  }
  return CscMatrix(t);
}

Vector pinned_rhs(std::size_t n, std::uint64_t seed) {
  Lcg r{seed};
  Vector b(n);
  for (double& v : b) v = r.next();
  return b;
}

struct SolvePin {
  std::uint64_t solve, transposed;
};

SolvePin solve_pin(const SparseLu& lu, std::uint64_t seed) {
  const Vector b = pinned_rhs(lu.size(), seed);
  return {bits_digest(lu.solve(b)), bits_digest(lu.solve_transposed(b))};
}

TEST(SparseLu, SolvesMatchPinnedDigests) {
  struct Case {
    std::size_t n, block;
    std::uint64_t seed;
    SolvePin fresh, restarted;
  };
  const Case cases[] = {
      {40, 12, 7,
       {0x789993448273dd84, 0x44f1ea2c4b80a15d},
       {0x1656ee48ca3bdf9a, 0xa801b459026972c6}},
      {96, 20, 11,
       {0xd3f3153fbc5af92c, 0xced2f132492dfaf9},
       {0x17379c8246982ecb, 0x2b34a7e908654233}},
      {150, 8, 23,
       {0xb6d6f9fb5291b942, 0xb89ac5f5b2ac380a},
       {0xf4e6b3b8eb343937, 0x240d57ed6ba59c0f}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.n);
    const CscMatrix a = pinned_matrix(c.n, c.block, c.seed);
    // Pin three mid-matrix columns last: the refactor below restarts at the
    // first of them, so the steps before it keep their stored columns.
    const std::vector<std::size_t> last = {c.n / 2, c.n / 3, c.n / 2 + 1};
    SparseLu lu(a, SparseLuSymbolic(a, last));
    const SolvePin fresh = solve_pin(lu, c.seed + 1);
    EXPECT_EQ(fresh.solve, c.fresh.solve) << std::hex << fresh.solve;
    EXPECT_EQ(fresh.transposed, c.fresh.transposed)
        << std::hex << fresh.transposed;

    const CscMatrix a1 = with_columns_scaled(a, last, 1.5);
    const std::int64_t before = refactor_columns();
    lu.refactor(a1);
    const std::int64_t recomputed = refactor_columns() - before;
    EXPECT_GT(recomputed, 0);
    EXPECT_LE(recomputed, static_cast<std::int64_t>(last.size()));
    const SolvePin restarted = solve_pin(lu, c.seed + 1);
    EXPECT_EQ(restarted.solve, c.restarted.solve) << std::hex << restarted.solve;
    EXPECT_EQ(restarted.transposed, c.restarted.transposed)
        << std::hex << restarted.transposed;
    expect_bitwise_equal_solves(lu, SparseLu(a1, SparseLuSymbolic(a1, last)));
  }
}

// Deterministic diagonally-dominant (hence well-conditioned) test matrix.
Matrix dominant_random(std::size_t n, std::uint64_t seed) {
  Matrix a(n, n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      a(i, j) = static_cast<double>(s >> 11) /
                    static_cast<double>(1ULL << 53) -
                0.5;
      if (i == j) a(i, j) += static_cast<double>(n);
    }
  return a;
}

struct ThreadsGuard {
  ~ThreadsGuard() { ind::runtime::set_global_threads(0); }
};

TEST(LuBlocked, BlockedMatchesUnblockedBitwiseAtAnyThreads) {
  const std::size_t n = 96;
  const Matrix a = dominant_random(n, 7);
  // block = 1 is the classic unblocked elimination; every blocking and
  // thread-count configuration must reproduce its factor bit for bit.
  const LuFactor<double> ref(a, LuOptions{.block = 1});
  ThreadsGuard guard;
  for (const unsigned threads : {1u, 4u}) {
    ind::runtime::set_global_threads(threads);
    for (const std::size_t blk : {std::size_t{8}, std::size_t{48},
                                  std::size_t{0} /* env default */}) {
      const LuFactor<double> f(a, LuOptions{.block = blk});
      EXPECT_EQ(f.perm(), ref.perm());
      EXPECT_TRUE(f.packed() == ref.packed());
    }
  }
}

TEST(Lu, MatrixRhsValidatesShapeUpFront) {
  const Matrix a{{4, -2}, {-2, 4}};
  const LU lu(a);
  const Matrix bad(3, 2);  // wrong row count
  EXPECT_THROW(lu.solve(bad), std::invalid_argument);
  const Matrix none(2, 0);  // zero columns: early-out, no pool dispatch
  const Matrix x = lu.solve(none);
  EXPECT_EQ(x.rows(), 2u);
  EXPECT_EQ(x.cols(), 0u);
}

TEST(Lu, MultiRhsMatchesVectorSolveBitwise) {
  const std::size_t n = 40, nrhs = 5;
  const Matrix a = dominant_random(n, 11);
  const LU lu(a);
  Matrix b(n, nrhs);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < nrhs; ++j)
      b(i, j) = std::sin(static_cast<double>(i * nrhs + j));
  const Matrix x = lu.solve(b);
  for (std::size_t j = 0; j < nrhs; ++j) {
    Vector bj(n);
    for (std::size_t i = 0; i < n; ++i) bj[i] = b(i, j);
    const Vector xj = lu.solve(bj);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x(i, j), xj[i]);
  }
}

TEST(LuBlocked, WorkBudgetCancelsMidFactor) {
  const Matrix a = dominant_random(128, 31);
  ind::govern::RunBudget budget;
  budget.work_units = 100;  // far below the factor's ~n^2/2 panel charges
  ind::govern::Run run(budget);
  const ind::govern::RunScope scope(run);
  EXPECT_THROW(LuFactor<double>{a}, ind::govern::CancelledError);
}

}  // namespace
