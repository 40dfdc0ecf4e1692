#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/flops.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/lin/util.hpp"

namespace cacqr::lin {
namespace {

/// Random well-conditioned triangular matrix (unit-dominant diagonal).
Matrix random_tri(Rng& rng, i64 n, Uplo uplo, Diag diag) {
  Matrix t(n, n);
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i < n; ++i) {
      const bool stored = uplo == Uplo::Lower ? i > j : i < j;
      if (stored) t(i, j) = 0.3 * rng.normal();
    }
    t(j, j) = diag == Diag::Unit ? 1.0 : 2.0 + rng.uniform();
  }
  return t;
}

/// Densifies op(T) honoring uplo/diag so gemm can serve as the reference.
Matrix densify(ConstMatrixView t, Uplo uplo, Trans trans, Diag diag) {
  const i64 n = t.rows;
  Matrix full(n, n);
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i < n; ++i) {
      const bool stored = uplo == Uplo::Lower ? i >= j : i <= j;
      if (stored) full(i, j) = (i == j && diag == Diag::Unit) ? 1.0 : t(i, j);
    }
  }
  return trans == Trans::T ? transposed(full) : full;
}

using TriParam = std::tuple<int, int, int, int, int>;  // side,uplo,trans,diag,n

class TrmmSweep : public ::testing::TestWithParam<TriParam> {};

TEST_P(TrmmSweep, MatchesDenseReference) {
  const auto [sidei, uploi, transi, diagi, n] = GetParam();
  const Side side = sidei ? Side::Right : Side::Left;
  const Uplo uplo = uploi ? Uplo::Upper : Uplo::Lower;
  const Trans trans = transi ? Trans::T : Trans::N;
  const Diag diag = diagi ? Diag::Unit : Diag::NonUnit;
  Rng rng(static_cast<u64>(97 * n + 8 * sidei + 4 * uploi + 2 * transi + diagi));

  Matrix t = random_tri(rng, n, uplo, diag);
  const i64 rows = side == Side::Left ? n : n + 3;
  const i64 cols = side == Side::Left ? n + 3 : n;
  Matrix b = gaussian(rng, rows, cols);
  Matrix dense = densify(t, uplo, trans, diag);

  Matrix expect(rows, cols);
  if (side == Side::Left) {
    gemm(Trans::N, Trans::N, -2.0, dense, b, 0.0, expect);
  } else {
    gemm(Trans::N, Trans::N, -2.0, b, dense, 0.0, expect);
  }

  trmm(side, uplo, trans, diag, -2.0, t, b);
  EXPECT_LT(max_abs_diff(b, expect), 1e-11 * (1.0 + max_abs(expect)));
}

class TrsmSweep : public ::testing::TestWithParam<TriParam> {};

TEST_P(TrsmSweep, SolveThenMultiplyRoundTrips) {
  const auto [sidei, uploi, transi, diagi, n] = GetParam();
  const Side side = sidei ? Side::Right : Side::Left;
  const Uplo uplo = uploi ? Uplo::Upper : Uplo::Lower;
  const Trans trans = transi ? Trans::T : Trans::N;
  const Diag diag = diagi ? Diag::Unit : Diag::NonUnit;
  Rng rng(static_cast<u64>(131 * n + 8 * sidei + 4 * uploi + 2 * transi + diagi));

  Matrix t = random_tri(rng, n, uplo, diag);
  const i64 rows = side == Side::Left ? n : n + 2;
  const i64 cols = side == Side::Left ? n + 2 : n;
  Matrix b = gaussian(rng, rows, cols);
  Matrix x = materialize(b.view());

  trsm(side, uplo, trans, diag, 1.0, t, x);
  // op(T) X == B (left) or X op(T) == B (right)?
  Matrix dense = densify(t, uplo, trans, diag);
  Matrix back(rows, cols);
  if (side == Side::Left) {
    gemm(Trans::N, Trans::N, 1.0, dense, x, 0.0, back);
  } else {
    gemm(Trans::N, Trans::N, 1.0, x, dense, 0.0, back);
  }
  EXPECT_LT(max_abs_diff(back, b), 1e-10 * (1.0 + max_abs(b)));
}

// Sizes above 32 exercise the blocked recursion (gemm off-diagonal
// updates); 97 and 130 are deliberately not multiples of the base block.
INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrmmSweep,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0, 1),
                       ::testing::Values(0, 1), ::testing::Values(0, 1),
                       ::testing::Values(1, 5, 23, 64, 97, 130)));

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsmSweep,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0, 1),
                       ::testing::Values(0, 1), ::testing::Values(0, 1),
                       ::testing::Values(1, 5, 23, 64, 97, 130)));

TEST(TrsmTest, AlphaScaling) {
  Rng rng(3);
  Matrix t = random_tri(rng, 4, Uplo::Lower, Diag::NonUnit);
  Matrix b = gaussian(rng, 4, 2);
  Matrix x1 = materialize(b.view());
  Matrix x2 = materialize(b.view());
  trsm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, 2.0, t, x1);
  trsm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, 1.0, t, x2);
  scal(2.0, x2);
  EXPECT_LT(max_abs_diff(x1, x2), 1e-12 * (1.0 + max_abs(x2)));
}

TEST(TrmmTest, InverseComposesToIdentity) {
  // B * U then solve against U returns B.
  Rng rng(31);
  Matrix u = random_tri(rng, 8, Uplo::Upper, Diag::NonUnit);
  Matrix b = gaussian(rng, 5, 8);
  Matrix orig = materialize(b.view());
  trmm(Side::Right, Uplo::Upper, Trans::N, Diag::NonUnit, 1.0, u, b);
  trsm(Side::Right, Uplo::Upper, Trans::N, Diag::NonUnit, 1.0, u, b);
  EXPECT_LT(max_abs_diff(b, orig), 1e-10 * (1.0 + max_abs(orig)));
}

TEST(TrmmTest, FlopCountFormula) {
  // The documented dense count, independent of blocking and data:
  // vectors * n * (n + 1) with vectors = cols (left) / rows (right).
  Rng rng(41);
  Matrix t = random_tri(rng, 17, Uplo::Lower, Diag::NonUnit);
  Matrix bl = gaussian(rng, 17, 5);
  flops::reset();
  trmm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, 1.0, t, bl);
  EXPECT_EQ(flops::take(), 5 * 17 * 18);
  Matrix br = gaussian(rng, 7, 17);
  flops::reset();
  trmm(Side::Right, Uplo::Lower, Trans::T, Diag::Unit, -2.0, t, br);
  EXPECT_EQ(flops::take(), 7 * 17 * 18);
}

TEST(TrsmTest, FlopCountFormula) {
  Rng rng(43);
  Matrix t = random_tri(rng, 17, Uplo::Upper, Diag::NonUnit);
  Matrix bl = gaussian(rng, 17, 5);
  flops::reset();
  trsm(Side::Left, Uplo::Upper, Trans::N, Diag::NonUnit, 1.0, t, bl);
  EXPECT_EQ(flops::take(), 5 * 17 * 18);
  // Right side: the diagonal divisions are charged only for NonUnit.
  Matrix br = gaussian(rng, 7, 17);
  flops::reset();
  trsm(Side::Right, Uplo::Upper, Trans::N, Diag::NonUnit, 1.0, t, br);
  EXPECT_EQ(flops::take(), 7 * 17 * 18);
  Matrix bu = gaussian(rng, 7, 17);
  Matrix tu = random_tri(rng, 17, Uplo::Upper, Diag::Unit);
  flops::reset();
  trsm(Side::Right, Uplo::Upper, Trans::N, Diag::Unit, 1.0, tu, bu);
  EXPECT_EQ(flops::take(), 7 * 17 * 16);
  // alpha != 1 additionally charges the scal pass (rows * cols).
  flops::reset();
  trsm(Side::Right, Uplo::Upper, Trans::N, Diag::Unit, 2.0, tu, bu);
  EXPECT_EQ(flops::take(), 7 * 17 * 16 + 7 * 17);
}

TEST(TrmmTest, BlockedFlopCountMatchesFormulaAboveBaseCase) {
  // n = 130 goes through two recursion levels; the charge must still be
  // the closed-form count, bit-identical to the seed's loops.
  Rng rng(47);
  Matrix t = random_tri(rng, 130, Uplo::Lower, Diag::NonUnit);
  Matrix b = gaussian(rng, 9, 130);
  flops::reset();
  trmm(Side::Right, Uplo::Lower, Trans::T, Diag::NonUnit, 1.0, t, b);
  EXPECT_EQ(flops::take(), 9 * 130 * 131);
  Matrix b2 = gaussian(rng, 130, 9);
  flops::reset();
  trsm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, 1.0, t, b2);
  EXPECT_EQ(flops::take(), 9 * 130 * 131);
}

TEST(TrmmTest, SubViewOperandsRespectLeadingDimensions) {
  Rng rng(53);
  Matrix tbig = random_tri(rng, 40, Uplo::Lower, Diag::NonUnit);
  auto t = lin::ConstMatrixView{tbig.data(), 33, 33, 40};  // ld > rows
  Matrix bbig = gaussian(rng, 50, 40);
  auto b = bbig.sub(4, 3, 33, 9);
  Matrix dense = densify(materialize(t), Uplo::Lower, Trans::N,
                         Diag::NonUnit);
  Matrix expect(33, 9);
  gemm(Trans::N, Trans::N, 1.0, dense, b, 0.0, expect);
  trmm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, 1.0, t, b);
  EXPECT_LT(max_abs_diff(materialize(b), expect),
            1e-11 * (1.0 + max_abs(expect)));
}

TEST(TrsmTest, SubViewOperandsRespectLeadingDimensions) {
  Rng rng(59);
  Matrix tbig = random_tri(rng, 40, Uplo::Upper, Diag::NonUnit);
  auto t = lin::ConstMatrixView{tbig.data(), 37, 37, 40};
  Matrix bbig = gaussian(rng, 50, 45);
  auto b = bbig.sub(2, 5, 11, 37);
  Matrix orig = materialize(b);
  trsm(Side::Right, Uplo::Upper, Trans::T, Diag::NonUnit, 1.0, t, b);
  Matrix dense = densify(materialize(t), Uplo::Upper, Trans::T,
                         Diag::NonUnit);
  Matrix back(11, 37);
  gemm(Trans::N, Trans::N, 1.0, materialize(b), dense, 0.0, back);
  EXPECT_LT(max_abs_diff(back, orig), 1e-9 * (1.0 + max_abs(orig)));
}

TEST(TriangularTest, DegenerateShapesAreNoOps) {
  Matrix t0(0, 0);
  Matrix b0(0, 4), b1(4, 0);
  flops::reset();
  EXPECT_NO_THROW(
      trmm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, 1.0, t0, b0));
  EXPECT_NO_THROW(
      trsm(Side::Right, Uplo::Upper, Trans::T, Diag::Unit, 1.0, t0, b1));
  EXPECT_EQ(flops::take(), 0);
  // Zero right-hand-side columns against a real triangle.
  Rng rng(61);
  Matrix t = random_tri(rng, 6, Uplo::Lower, Diag::NonUnit);
  Matrix bempty(6, 0);
  EXPECT_NO_THROW(
      trsm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, 1.0, t, bempty));
}

// ------------------------------------------------ right-side trmm sweep
//
// The right-side trmm runs through the packed driver: triangles up to the
// active variant's contraction block KC (kernel::trmm_sweep_order) are one
// triangle-clipped sweep, larger ones split in half.  These tests pin that
// path in place (trmm) and out of place (trmm_right) under every variant
// this host runs, across KC, MC and the register-tile widths.

/// Restores the entry micro-kernel variant on scope exit.
struct VariantGuard {
  kernel::Variant saved = kernel::active_variant();
  ~VariantGuard() { kernel::set_kernel_variant(saved); }
};

/// Restores the worker budget on scope exit.
struct BudgetGuard {
  int saved = parallel::thread_budget();
  ~BudgetGuard() { parallel::set_thread_budget(saved); }
};

bool bytes_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) ==
             0;
}

bool all_finite(const Matrix& a) {
  for (i64 i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a.data()[i])) return false;
  }
  return true;
}

/// random_tri with NaN in every entry trmm must not read: the other
/// triangle, and the diagonal when it is implicitly one.
Matrix poisoned_tri(Rng& rng, i64 n, Uplo uplo, Diag diag) {
  Matrix t = random_tri(rng, n, uplo, diag);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i < n; ++i) {
      const bool other = uplo == Uplo::Lower ? i < j : i > j;
      if (other || (i == j && diag == Diag::Unit)) t(i, j) = nan;
    }
  }
  return t;
}

/// Scalar reference A * op(T), op(T) densified from the referenced
/// triangle only.
Matrix right_reference(ConstMatrixView a, ConstMatrixView t, Uplo uplo,
                       Trans trans, Diag diag) {
  const Matrix op = densify(t, uplo, trans, diag);
  Matrix c(a.rows, op.cols());
  for (i64 j = 0; j < op.cols(); ++j) {
    for (i64 k = 0; k < op.rows(); ++k) {
      const double w = op(k, j);
      if (w == 0.0) continue;
      for (i64 i = 0; i < a.rows; ++i) c(i, j) += a(i, k) * w;
    }
  }
  return c;
}

/// Both right-side entries on A: out of place into a NaN-filled C (an
/// uninitialized output), and in place on a copy of A.
struct RightRun {
  Matrix out_of_place;
  Matrix in_place;
};

RightRun run_right(ConstMatrixView t, ConstMatrixView a, Uplo uplo,
                   Trans trans, Diag diag, double alpha) {
  RightRun r{Matrix(a.rows, a.cols), materialize(a)};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (i64 i = 0; i < r.out_of_place.size(); ++i) {
    r.out_of_place.data()[i] = nan;
  }
  trmm_right(uplo, trans, diag, alpha, t, a, r.out_of_place);
  trmm(Side::Right, uplo, trans, diag, alpha, t, r.in_place);
  return r;
}

/// The orders the sweep must get right under the active variant: single
/// and partial register tiles, NR +- 1 around both tile widths (6, 14),
/// KC and KC + 1 (one sweep vs the first split), and a two-level split.
std::vector<i64> right_orders() {
  const i64 kc = kernel::trmm_sweep_order();
  return {1, 5, 13, 14, 15, 16, 17, 64, 127, kc, kc + 1, 300};
}

using RightParam = std::tuple<int, int, int>;  // uplo, trans, diag

class TrmmRightSweep : public ::testing::TestWithParam<RightParam> {};

TEST_P(TrmmRightSweep, MatchesScalarReferenceInAndOutOfPlace) {
  const auto [uploi, transi, diagi] = GetParam();
  const Uplo uplo = uploi ? Uplo::Upper : Uplo::Lower;
  const Trans trans = transi ? Trans::T : Trans::N;
  const Diag diag = diagi ? Diag::Unit : Diag::NonUnit;
  const VariantGuard guard;
  // Row counts below, across and well past one MC block of every variant.
  for (const i64 m : {i64{3}, kernel::MC + 17, 2 * kernel::MC + 45}) {
    for (const kernel::Variant v : kernel::supported_variants()) {
      kernel::set_kernel_variant(v);
      for (const i64 n : right_orders()) {
        Rng rng(static_cast<u64>(7919 * n + 31 * m + 4 * uploi + 2 * transi +
                                 diagi));
        const Matrix t = poisoned_tri(rng, n, uplo, diag);
        const Matrix a = gaussian(rng, m, n);
        const Matrix ref = right_reference(a, t, uplo, trans, diag);
        for (const double alpha : {0.0, 1.0, -2.0}) {
          SCOPED_TRACE(::testing::Message()
                       << kernel::variant_name(v) << " m=" << m << " n=" << n
                       << " alpha=" << alpha);
          const RightRun r = run_right(t, a, uplo, trans, diag, alpha);
          ASSERT_TRUE(all_finite(r.out_of_place));
          EXPECT_TRUE(bytes_equal(r.in_place, r.out_of_place));
          if (alpha == 0.0) {
            EXPECT_EQ(max_abs(r.out_of_place), 0.0);
            continue;
          }
          Matrix expect = materialize(ref.view());
          scal(alpha, expect);  // exact: alpha is a power of two
          EXPECT_LT(max_abs_diff(r.out_of_place, expect),
                    1e-12 * (1.0 + max_abs(expect)));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(UploTransDiag, TrmmRightSweep,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0, 1),
                                            ::testing::Values(0, 1)));

TEST(TrmmRightTest, BitwiseAcrossThreadBudgets) {
  const VariantGuard vguard;
  const BudgetGuard bguard;
  for (const kernel::Variant v : kernel::supported_variants()) {
    kernel::set_kernel_variant(v);
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      for (const Trans trans : {Trans::N, Trans::T}) {
        // m * n^2 clears the driver's threading threshold at every order.
        for (const i64 n : {i64{64}, kernel::trmm_sweep_order() + 1,
                            i64{300}}) {
          SCOPED_TRACE(::testing::Message() << kernel::variant_name(v)
                                            << " n=" << n);
          Rng rng(static_cast<u64>(401 * n + 2 * static_cast<int>(uplo) +
                                   static_cast<int>(trans)));
          const Matrix t = poisoned_tri(rng, n, uplo, Diag::NonUnit);
          const Matrix a = gaussian(rng, 2 * kernel::MC + 45, n);
          parallel::set_thread_budget(1);
          const RightRun r1 =
              run_right(t, a, uplo, trans, Diag::NonUnit, -2.0);
          for (const int threads : {2, 4}) {
            parallel::set_thread_budget(threads);
            const RightRun rt =
                run_right(t, a, uplo, trans, Diag::NonUnit, -2.0);
            EXPECT_TRUE(bytes_equal(r1.out_of_place, rt.out_of_place))
                << "out of place, threads=" << threads;
            EXPECT_TRUE(bytes_equal(r1.in_place, rt.in_place))
                << "in place, threads=" << threads;
          }
        }
      }
    }
  }
}

TEST(TrmmRightTest, ArenaDoesNotGrowAfterWarmup) {
  const BudgetGuard guard;
  Rng rng(433);
  const Matrix t = poisoned_tri(rng, 64, Uplo::Lower, Diag::NonUnit);
  const Matrix a = gaussian(rng, 4096, 64);
  Matrix q = Matrix::uninit(4096, 64);
  for (const int threads : {1, 4}) {
    parallel::set_thread_budget(threads);
    trmm_right(Uplo::Lower, Trans::T, Diag::NonUnit, 1.0, t, a, q);
    const i64 before = kernel::arena_stats().allocations;
    for (int rep = 0; rep < 5; ++rep) {
      trmm_right(Uplo::Lower, Trans::T, Diag::NonUnit, 1.0, t, a, q);
    }
    EXPECT_EQ(kernel::arena_stats().allocations, before)
        << "threads=" << threads;
  }
}

TEST(TrmmRightTest, FlopCountMatchesInPlace) {
  Rng rng(439);
  const i64 n = kernel::trmm_sweep_order() + 3;  // the split path too
  const Matrix t = random_tri(rng, n, Uplo::Upper, Diag::Unit);
  const Matrix a = gaussian(rng, 9, n);
  Matrix c = Matrix::uninit(9, n);
  flops::reset();
  trmm_right(Uplo::Upper, Trans::N, Diag::Unit, -2.0, t, a, c);
  EXPECT_EQ(flops::take(), 9 * n * (n + 1));
  Matrix b = materialize(a.view());
  trmm(Side::Right, Uplo::Upper, Trans::N, Diag::Unit, -2.0, t, b);
  EXPECT_EQ(flops::take(), 9 * n * (n + 1));
  EXPECT_THROW(trmm_right(Uplo::Upper, Trans::N, Diag::Unit, 1.0, t,
                          a.sub(0, 0, 9, n - 1), c),
               Error);
}

}  // namespace
}  // namespace cacqr::lin
