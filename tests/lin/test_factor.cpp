#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/util.hpp"

namespace cacqr::lin {
namespace {

class PotrfSweep : public ::testing::TestWithParam<int> {};

TEST_P(PotrfSweep, ReconstructsInput) {
  const i64 n = GetParam();
  Rng rng(static_cast<u64>(n) * 7919);
  Matrix a = spd_with_cond(rng, n, 100.0);
  Matrix l = materialize(a.view());
  potrf(l);
  EXPECT_TRUE(is_upper_triangular(transposed(l)));
  // L L^T == A.
  Matrix back(n, n);
  gemm(Trans::N, Trans::T, 1.0, l, l, 0.0, back);
  EXPECT_LT(max_abs_diff(back, a), 1e-11 * (1.0 + max_abs(a)));
  // Diagonal strictly positive.
  for (i64 i = 0; i < n; ++i) EXPECT_GT(l(i, i), 0.0);
}

TEST_P(PotrfSweep, TrtriInvertsFactor) {
  const i64 n = GetParam();
  Rng rng(static_cast<u64>(n) * 104729);
  Matrix a = spd_with_cond(rng, n, 50.0);
  potrf(a);
  Matrix y = materialize(a.view());
  trtri_lower(y);
  // L * Y == I (ignore the strict upper triangle, both should carry zeros
  // in L's case and untouched zeros in Y's case).
  Matrix prod(n, n);
  gemm(Trans::N, Trans::N, 1.0, a, y, 0.0, prod);
  Matrix eye = Matrix::identity(n);
  EXPECT_LT(max_abs_diff(prod, eye), 1e-10 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PotrfSweep,
                         ::testing::Values(1, 2, 3, 8, 17, 48, 49, 96, 130));

TEST(PotrfTest, ThrowsOnIndefinite) {
  Matrix a = Matrix::identity(4);
  a(2, 2) = -1.0;  // indefinite
  try {
    potrf(a);
    FAIL() << "expected NotSpdError";
  } catch (const NotSpdError& e) {
    EXPECT_EQ(e.pivot, 2u);
  }
}

TEST(PotrfTest, ThrowsOnSemidefinite) {
  // Rank-1 Gram matrix: positive semidefinite, not definite.
  Matrix a(3, 3);
  for (i64 j = 0; j < 3; ++j) {
    for (i64 i = 0; i < 3; ++i) a(i, j) = 1.0;
  }
  EXPECT_THROW(potrf(a), NotSpdError);
}

TEST(PotrfTest, BreakdownThresholdIsTwoNUTimesLargestDiagonal) {
  // Diagonal SPD matrix: every pivot equals its diagonal entry exactly.
  // The largest diagonal (4) sits in the first block, the pivot under
  // test in the third, so the blocked path must carry the threshold
  // 2 n u max_i A(i, i) = 2 * 100 * 2^-53 * 4 = 400 DBL_EPSILON down.
  const i64 n = 100;
  const double tau = 400.0 * DBL_EPSILON;
  auto with_last_pivot = [&](double p) {
    Matrix a = Matrix::identity(n);
    a(0, 0) = 4.0;
    a(n - 1, n - 1) = p;
    return a;
  };
  EXPECT_EQ(breakdown_threshold(with_last_pivot(1.0)), tau);
  for (const double p : {std::nextafter(tau, 0.0), tau}) {
    Matrix a = with_last_pivot(p);
    try {
      potrf(a);
      FAIL() << "expected NotSpdError for pivot " << p;
    } catch (const NotSpdError& e) {
      EXPECT_EQ(e.pivot, static_cast<std::size_t>(n - 1));
    }
  }
  Matrix above = with_last_pivot(std::nextafter(tau, 1.0));
  EXPECT_NO_THROW(potrf(above));
  // An explicit tol = 0 counts only a pivot that is not positive.
  Matrix tiny = with_last_pivot(tau / 2.0);
  EXPECT_NO_THROW(potrf(tiny, 0.0));
  Matrix zero = with_last_pivot(0.0);
  EXPECT_THROW(potrf(zero, 0.0), NotSpdError);
}

TEST(PotrfTest, BlockedMatchesUnblockedPath) {
  // n larger than the internal block size exercises the blocked update;
  // cross-check against reconstruction (covered above) and determinism.
  Rng rng(5);
  Matrix a = spd_with_cond(rng, 100, 10.0);
  Matrix l1 = materialize(a.view());
  Matrix l2 = materialize(a.view());
  potrf(l1);
  potrf(l2);
  EXPECT_EQ(l1, l2);  // bitwise deterministic
}

TEST(PotrfTest, RejectsNonSquare) {
  Matrix a(3, 4);
  EXPECT_THROW(potrf(a), DimensionError);
}

TEST(TrtriTest, DiagonalOnly) {
  Matrix l = Matrix::identity(3);
  l(0, 0) = 2.0;
  l(1, 1) = 4.0;
  l(2, 2) = 8.0;
  trtri_lower(l);
  EXPECT_DOUBLE_EQ(l(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(l(1, 1), 0.25);
  EXPECT_DOUBLE_EQ(l(2, 2), 0.125);
}

TEST(TrtriTest, LargeRecursivePath) {
  Rng rng(23);
  const i64 n = 160;  // exercises the recursive splitting (block size 48)
  Matrix a = spd_with_cond(rng, n, 10.0);
  potrf(a);
  Matrix y = materialize(a.view());
  trtri_lower(y);
  Matrix prod(n, n);
  gemm(Trans::N, Trans::N, 1.0, a, y, 0.0, prod);
  EXPECT_LT(max_abs_diff(prod, Matrix::identity(n)), 1e-9);
}

TEST(CholInvTest, ProducesBothFactors) {
  Rng rng(29);
  Matrix a = spd_with_cond(rng, 24, 100.0);
  auto [l, y] = cholinv(a);
  Matrix back(24, 24);
  gemm(Trans::N, Trans::T, 1.0, l, l, 0.0, back);
  EXPECT_LT(max_abs_diff(back, a), 1e-11 * (1.0 + max_abs(a)));
  Matrix prod(24, 24);
  gemm(Trans::N, Trans::N, 1.0, l, y, 0.0, prod);
  EXPECT_LT(max_abs_diff(prod, Matrix::identity(24)), 1e-10);
}

TEST(CholInvTest, InputNotModified) {
  Rng rng(31);
  Matrix a = spd_with_cond(rng, 8, 10.0);
  Matrix saved = materialize(a.view());
  (void)cholinv(a);
  EXPECT_EQ(a, saved);
}

}  // namespace
}  // namespace cacqr::lin
