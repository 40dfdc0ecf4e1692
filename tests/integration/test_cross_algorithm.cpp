/// \file test_cross_algorithm.cpp
/// \brief Cross-algorithm consistency: every QR implementation in the
///        repository -- sequential Householder, sequential CQR2, 1D-CQR2,
///        CA-CQR2 on several grids, ScaLAPACK-style PGEQRF, TSQR -- must
///        produce the SAME (sign-normalized) factors of the same matrix.
///        This pins all six code paths against each other end to end.

#include <gtest/gtest.h>

#include "cacqr/baseline/pgeqrf_2d.hpp"
#include "cacqr/baseline/tsqr.hpp"
#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/cqr.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/qr.hpp"
#include "cacqr/lin/util.hpp"

namespace cacqr {
namespace {

using dist::DistMatrix;

// One well-conditioned shared input; every path factors the same bits.
constexpr i64 kM = 64;
constexpr i64 kN = 16;
constexpr u64 kSeed = 20240610;

lin::Matrix input() { return lin::hashed_matrix(kSeed, kM, kN); }

/// Tolerance scaled for cross-implementation comparison: all algorithms
/// are eps-accurate here, but they sum in different orders.
constexpr double kTol = 1e-10;

TEST(CrossAlgorithmTest, SequentialCqr2MatchesHouseholder) {
  lin::Matrix a = input();
  auto hh = lin::householder_qr(a);
  auto cq = core::cqr2(a);
  EXPECT_LT(lin::max_abs_diff(hh.q, cq.q), kTol);
  EXPECT_LT(lin::max_abs_diff(hh.r, cq.r), kTol * (1.0 + lin::max_abs(hh.r)));
}

TEST(CrossAlgorithmTest, Cqr1dMatchesHouseholder) {
  lin::Matrix a = input();
  auto hh = lin::householder_qr(a);
  rt::Runtime::run(8, [&](rt::Comm& world) {
    grid::TunableGrid g(world, 1, 8);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto res = core::ca_cqr2(da, g);
    lin::Matrix q = gather(res.q, g.slice());
    EXPECT_LT(lin::max_abs_diff(hh.q, q), kTol);
    EXPECT_LT(lin::max_abs_diff(hh.r, res.r.local()),
              kTol * (1.0 + lin::max_abs(hh.r)));
  });
}

TEST(CrossAlgorithmTest, CaCqr2MatchesHouseholderOnEveryGrid) {
  lin::Matrix a = input();
  auto hh = lin::householder_qr(a);
  struct Shape {
    int c, d;
  };
  for (const auto& s : {Shape{1, 4}, Shape{2, 2}, Shape{2, 4}, Shape{4, 4}}) {
    rt::Runtime::run(s.c * s.c * s.d, [&](rt::Comm& world) {
      grid::TunableGrid g(world, s.c, s.d);
      auto da = DistMatrix::from_global_on_tunable(a, g);
      auto res = core::ca_cqr2(da, g);
      lin::Matrix q = gather(res.q, g.slice());
      lin::Matrix r = gather(res.r, g.subcube().slice());
      EXPECT_LT(lin::max_abs_diff(hh.q, q), kTol)
          << "grid " << s.c << "x" << s.d;
      EXPECT_LT(lin::max_abs_diff(hh.r, r),
                kTol * (1.0 + lin::max_abs(hh.r)))
          << "grid " << s.c << "x" << s.d;
    });
  }
}

TEST(CrossAlgorithmTest, PgeqrfMatchesHouseholder) {
  lin::Matrix a = input();
  auto hh = lin::householder_qr(a);
  rt::Runtime::run(4, [&](rt::Comm& world) {
    baseline::ProcGrid2d g(world, 2, 2);
    auto da = baseline::BlockCyclicMatrix::from_global(a, 4, g);
    auto res = baseline::pgeqrf_2d(da, g);
    EXPECT_LT(lin::max_abs_diff(hh.q, res.q.gather(g)), kTol);
    EXPECT_LT(lin::max_abs_diff(hh.r, res.r.gather(g)),
              kTol * (1.0 + lin::max_abs(hh.r)));
  });
}

TEST(CrossAlgorithmTest, TsqrMatchesHouseholder) {
  lin::Matrix a = input();
  auto hh = lin::householder_qr(a);
  rt::Runtime::run(4, [&](rt::Comm& world) {
    auto da = DistMatrix::from_global(a, 4, 1, world.rank(), 0);
    auto res = baseline::tsqr(da, world);
    EXPECT_LT(lin::max_abs_diff(hh.q, gather(res.q, world)), kTol);
    EXPECT_LT(lin::max_abs_diff(hh.r, res.r),
              kTol * (1.0 + lin::max_abs(hh.r)));
  });
}

TEST(CrossAlgorithmTest, AllVariantsAgreeOnHarderConditioning) {
  // kappa ~ 1e5: CholeskyQR2's repair kicks in; all explicit-Q paths
  // still agree with Householder on the unique factorization.
  Rng rng(4242);
  lin::Matrix a = lin::with_cond(rng, 48, 12, 1e5);
  auto hh = lin::householder_qr(a);
  auto cq = core::cqr2(a);
  // CholeskyQR2 loses ~kappa*eps digits in R relative to Householder.
  EXPECT_LT(lin::max_abs_diff(hh.r, cq.r), 1e-8 * (1.0 + lin::max_abs(hh.r)));
  rt::Runtime::run(8, [&](rt::Comm& world) {
    grid::TunableGrid g(world, 2, 2);
    // Pad-free shape: 48 % 2 == 0, 12 % 2 == 0.
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto res = core::ca_cqr2(da, g);
    lin::Matrix q = gather(res.q, g.slice());
    EXPECT_LT(lin::orthogonality_error(q), 1e-12);
    EXPECT_LT(lin::max_abs_diff(q, cq.q), 1e-9);
  });
}

}  // namespace
}  // namespace cacqr
