#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <functional>
#include <vector>

#include "cacqr/core/batched.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/core/shifted.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/qr.hpp"
#include "cacqr/lin/util.hpp"

namespace cacqr::core {
namespace {

TEST(ChooseGridTest, PicksValidShapes) {
  for (const int p : {1, 2, 4, 8, 16, 27, 32, 64, 100}) {
    for (const auto& [m, n] : {std::pair<i64, i64>{1 << 20, 1 << 5},
                               {1 << 12, 1 << 10}, {1 << 8, 1 << 8}}) {
      const auto [c, d] = choose_grid(p, m, n);
      EXPECT_TRUE(grid::TunableGrid::valid_shape(p, c, d))
          << "p=" << p << " m=" << m << " n=" << n << " -> c=" << c
          << " d=" << d;
    }
  }
}

TEST(ChooseGridTest, TallSkinnyPrefersSmallC) {
  // Extremely overdetermined: the 1D layout is optimal.
  const auto [c, d] = choose_grid(64, i64{1} << 26, 64);
  EXPECT_EQ(c, 1);
  EXPECT_EQ(d, 64);
}

TEST(ChooseGridTest, SquarePrefersFullCube) {
  const auto [c, d] = choose_grid(64, 4096, 4096);
  EXPECT_EQ(c, 4);
  EXPECT_EQ(d, 4);
}

TEST(FactorizeTest, ExactDivisibleShape) {
  rt::Runtime::run(8, [](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(81, 32, 8);
    auto res = factorize(a, world, {.c = 2, .d = 2});
    EXPECT_EQ(res.c, 2);
    EXPECT_EQ(res.d, 2);
    EXPECT_FALSE(res.used_shift);
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-11);
    EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-12);
    EXPECT_TRUE(lin::is_upper_triangular(res.r));
  });
}

TEST(FactorizeTest, AwkwardShapesArePadded) {
  // Dimensions with no relation to the grid: 37 x 5 on P = 8 and 16.
  for (const int p : {8, 16}) {
    rt::Runtime::run(p, [&](rt::Comm& world) {
      lin::Matrix a = lin::hashed_matrix(82, 37, 5);
      auto res = factorize(a, world);
      EXPECT_EQ(res.q.rows(), 37);
      EXPECT_EQ(res.q.cols(), 5);
      EXPECT_EQ(res.r.rows(), 5);
      EXPECT_LT(lin::orthogonality_error(res.q), 1e-11) << "p=" << p;
      EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-11) << "p=" << p;
    });
  }
}

TEST(FactorizeTest, PrimeDimensions) {
  rt::Runtime::run(4, [](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(83, 101, 13);
    auto res = factorize(a, world);
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-11);
    EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-11);
  });
}

TEST(FactorizeTest, MatchesHouseholder) {
  rt::Runtime::run(8, [](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(84, 50, 10);
    auto res = factorize(a, world);
    auto hh = lin::householder_qr(a);
    EXPECT_LT(lin::max_abs_diff(res.r, hh.r),
              1e-9 * (1.0 + lin::max_abs(hh.r)));
    EXPECT_LT(lin::max_abs_diff(res.q, hh.q), 1e-9);
  });
}

TEST(FactorizeTest, SinglePassOption) {
  rt::Runtime::run(4, [](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(85, 24, 6);
    auto res = factorize(a, world, {.passes = 1});
    // One pass on a well-conditioned matrix is already good.
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-10);
  });
}

TEST(FactorizeTest, AutoShiftFallback) {
  Rng rng(86);
  lin::Matrix a = lin::with_cond(rng, 32, 8, 1e11);
  rt::Runtime::run(4, [&](rt::Comm& world) {
    auto res = factorize(a, world);
    EXPECT_TRUE(res.used_shift);
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-10);
    EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-9);
  });
}

TEST(FactorizeTest, AutoShiftDisabledPropagates) {
  Rng rng(87);
  lin::Matrix a = lin::with_cond(rng, 32, 8, 1e11);
  rt::Runtime::run(4, [&](rt::Comm& world) {
    EXPECT_THROW((void)factorize(a, world, {.auto_shift = false}),
                 NotSpdError);
  });
}

/// The fp64 conditioning ladder (DESIGN.md section 9): one 64x8 panel
/// per decade, kappa = 1e0..1e15, through factorize on the c = 1 grid,
/// on an explicit c = 2 grid and through factorize_batched, all with
/// auto_shift.  Every rung up to a path's `sure` must return factors
/// within the CholeskyQR2 / shifted-CholeskyQR3 orthogonality bound 6 (mn
/// + n(n+1)) u, directly or through the shifted fallback; above it the
/// path may throw NotSpdError instead.  Returning ok with a worse Q is
/// the silent failure the breakdown criterion exists to rule out.
/// CholeskyQR2 must not fall back for kappa <= 1e7, and the paths must
/// agree on which rungs fall back.
TEST(FactorizeTest, Fp64ConditioningLadderNeverReturnsABadQ) {
  const i64 m = 64, n = 8;
  const double u = DBL_EPSILON / 2.0;
  const double bound = 6.0 * static_cast<double>(m * n + n * (n + 1)) * u;
  struct Path {
    const char* name;
    int ranks;
    int sure;  ///< highest exponent that must return
    std::function<BatchedItem(const lin::Matrix&, rt::Comm&)> run;
  };
  const Path paths[] = {
      // At kappa = 1e15 the c = 1 grid sits at the edge of shifted
      // CholeskyQR3's range: without FMA a pivot of the first pass after
      // the shift rounds negative (DESIGN.md section 9).
      {"factorize c=1", 4, 14,
       [](const lin::Matrix& a, rt::Comm& world) {
         FactorizeResult res =
             factorize(a, world, {.c = 1, .d = 4,
                                  .precision = Precision::fp64});
         return BatchedItem{std::move(res.q), std::move(res.r), true,
                            res.used_shift, nullptr};
       }},
      {"factorize c=2", 8, 15,
       [](const lin::Matrix& a, rt::Comm& world) {
         FactorizeResult res =
             factorize(a, world, {.c = 2, .d = 2,
                                  .precision = Precision::fp64});
         return BatchedItem{std::move(res.q), std::move(res.r), true,
                            res.used_shift, nullptr};
       }},
      {"factorize_batched", 4, 14,
       [](const lin::Matrix& a, rt::Comm& world) {
         const lin::ConstMatrixView panels[1] = {a};
         return std::move(
             factorize_batched(panels, world,
                               {.precision = Precision::fp64})
                 .front());
       }},
  };
  Rng rng(90);
  for (int e = 0; e <= 15; ++e) {
    const lin::Matrix a = lin::with_cond(rng, m, n, std::pow(10.0, e));
    std::vector<double> shifted;  // used_shift per path; -1: threw
    for (const Path& path : paths) {
      // Rank 0 publishes {threw, used_shift, ||Q^T Q - I||_F}.
      const rt::RunOutput out =
          rt::Runtime::run_collect(path.ranks, [&](rt::Comm& world) {
            double res[3] = {1.0, 0.0, 0.0};
            try {
              const BatchedItem item = path.run(a, world);
              if (!item.ok) std::rethrow_exception(item.error);
              res[0] = 0.0;
              res[1] = item.used_shift ? 1.0 : 0.0;
              res[2] = lin::orthogonality_error(item.q);
            } catch (const NotSpdError&) {
            }
            if (world.rank() == 0) world.publish(res);
          });
      const std::vector<double>& res = out.published.front();
      ASSERT_EQ(res.size(), 3u);
      if (res[0] != 0.0) {
        EXPECT_GT(e, path.sure) << path.name << " kappa=1e" << e
                                << " threw NotSpdError";
        shifted.push_back(-1.0);
        continue;
      }
      EXPECT_LE(res[2], bound) << path.name << " kappa=1e" << e
                               << " used_shift=" << res[1];
      if (e <= 7) {
        EXPECT_EQ(res[1], 0.0) << path.name << " kappa=1e" << e
                               << " fell back to shifted CholeskyQR3";
      }
      shifted.push_back(res[1]);
    }
    if (shifted[0] >= 0.0 && shifted[1] >= 0.0) {
      EXPECT_EQ(shifted[0], shifted[1])
          << "c = 1 and c = 2 disagree on breakdown at kappa=1e" << e;
    }
    EXPECT_EQ(shifted[0], shifted[2])
        << "factorize and factorize_batched disagree at kappa=1e" << e;
  }
}

/// Shifted CholeskyQR3's passes after the shift break down only on a
/// pivot that is not positive (DESIGN.md section 9).  A graded diagonal
/// panel, kappa = 1e15, keeps every off-diagonal an exact zero, so the
/// Gram of the shifted pass's Q1 has an exactly positive last pivot near
/// 7e-19, far below potrf's default threshold 2nu = 1.8e-15.
TEST(FactorizeTest, ShiftedTailAcceptsTinyPositivePivots) {
  const i64 m = 64, n = 8;
  lin::Matrix a(m, n);
  for (i64 i = 0; i < n; ++i) {
    a(i, i) = std::pow(10.0, -15.0 * static_cast<double>(i) / (n - 1));
  }
  EXPECT_LT(lin::orthogonality_error(shifted_cqr3(a).q), 1e-14);
  // Rank 0 publishes ||Q^T Q - I||_F of factorize and factorize_batched,
  // both with passes = 3 on the c = 1 grid.
  const rt::RunOutput out = rt::Runtime::run_collect(4, [&](rt::Comm& world) {
    double res[2] = {1.0, 1.0};
    try {
      res[0] = lin::orthogonality_error(
          factorize(a, world, {.c = 1, .d = 4, .passes = 3}).q);
      const lin::ConstMatrixView panels[1] = {a};
      res[1] = lin::orthogonality_error(
          factorize_batched(panels, world, {.passes = 3}).front().q);
    } catch (const NotSpdError&) {
    }
    if (world.rank() == 0) world.publish(res);
  });
  const std::vector<double>& res = out.published.front();
  ASSERT_EQ(res.size(), 2u);
  EXPECT_LT(res[0], 1e-14) << "factorize";
  EXPECT_LT(res[1], 1e-14) << "factorize_batched";
}

TEST(FactorizeTest, ExplicitThreePass) {
  rt::Runtime::run(4, [](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(88, 40, 8);
    auto res = factorize(a, world, {.passes = 3});
    EXPECT_TRUE(res.used_shift);
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-12);
  });
}

TEST(FactorizeTest, WideMatrixRejected) {
  rt::Runtime::run(2, [](rt::Comm& world) {
    lin::Matrix a(4, 8);
    EXPECT_THROW((void)factorize(a, world), DimensionError);
  });
}

TEST(FactorizeTest, SingleRankWorks) {
  rt::Runtime::run(1, [](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(89, 20, 7);
    auto res = factorize(a, world);
    EXPECT_EQ(res.c, 1);
    EXPECT_EQ(res.d, 1);
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-12);
  });
}

}  // namespace
}  // namespace cacqr::core
