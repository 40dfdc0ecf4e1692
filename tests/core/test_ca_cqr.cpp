#include <gtest/gtest.h>

#include <tuple>

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/cqr.hpp"
#include "cacqr/core/shifted.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/math.hpp"

namespace cacqr::core {
namespace {

using dist::DistMatrix;

using GridParam = std::tuple<int, int, int, int>;  // c, d, m-units, n-units

class CaCqrSweep : public ::testing::TestWithParam<GridParam> {};

/// m = mu * d rows, n = nu * c cols: the divisibility the low-level entry
/// points require (the high-level driver pads; see test_factorize.cpp).
TEST_P(CaCqrSweep, MatchesSequentialCqr2) {
  const auto [c, d, mu, nu] = GetParam();
  const int p = c * c * d;
  const i64 m = static_cast<i64>(mu) * d;
  const i64 n = static_cast<i64>(nu) * c;
  ASSERT_GE(m, n);
  rt::Runtime::run(p, [&, c = c, d = d](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    lin::Matrix a = lin::hashed_matrix(71, m, n);
    auto da = DistMatrix::from_global_on_tunable(a, g);

    auto res = ca_cqr2(da, g);

    auto seq = cqr2(a);
    lin::Matrix qg = gather(res.q, g.slice());
    lin::Matrix rg = gather(res.r, g.subcube().slice());
    EXPECT_LT(lin::max_abs_diff(rg, seq.r),
              1e-9 * (1.0 + lin::max_abs(seq.r)))
        << "c=" << c << " d=" << d << " m=" << m << " n=" << n;
    EXPECT_LT(lin::max_abs_diff(qg, seq.q), 1e-9)
        << "c=" << c << " d=" << d << " m=" << m << " n=" << n;
  });
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndShapes, CaCqrSweep,
    ::testing::Values(GridParam{1, 1, 24, 6},   // sequential degenerate
                      GridParam{1, 4, 8, 6},    // 1D grid (P=4)
                      GridParam{1, 8, 6, 4},    // 1D grid (P=8)
                      GridParam{2, 2, 16, 4},   // full cube (P=8, 3D-CQR2)
                      GridParam{2, 4, 8, 4},    // tunable (P=16, 2 subcubes)
                      GridParam{2, 8, 6, 3},    // tunable (P=32, 4 subcubes)
                      GridParam{4, 4, 8, 2},    // full cube (P=64)
                      GridParam{2, 4, 16, 8},   // larger blocks (P=16)
                      GridParam{2, 2, 48, 12}));

// 1D-CholeskyQR (Algorithms 6-7) is ca_cqr on the c = 1 grid.
class Cqr1dSweep : public ::testing::TestWithParam<int> {};

TEST_P(Cqr1dSweep, MatchesSequentialCqr2) {
  const int p = GetParam();
  const i64 m = 16 * p;
  const i64 n = 8;
  rt::Runtime::run(p, [&](rt::Comm& world) {
    grid::TunableGrid g(world, 1, p);
    lin::Matrix a = lin::hashed_matrix(61, m, n);
    auto da = DistMatrix::from_global_on_tunable(a, g);

    auto [q, r] = ca_cqr2(da, g);

    auto seq = cqr2(a);
    EXPECT_LT(lin::max_abs_diff(r.local(), seq.r),
              1e-10 * (1.0 + lin::max_abs(seq.r)))
        << "p=" << p;
    // Q is row-distributed: check the local rows against the sequential Q.
    for (i64 lj = 0; lj < n; ++lj) {
      for (i64 li = 0; li < q.layout().local_rows(); ++li) {
        EXPECT_NEAR(q.local()(li, lj), seq.q(q.layout().global_row(li), lj),
                    1e-10)
            << "p=" << p;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, Cqr1dSweep, ::testing::Values(1, 2, 4, 8));

TEST(Cqr1dTest, SinglePassInvariants) {
  const int p = 4;
  rt::Runtime::run(p, [&](rt::Comm& world) {
    grid::TunableGrid g(world, 1, p);
    lin::Matrix a = lin::hashed_matrix(62, 32, 6);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto [q, r] = ca_cqr(da, g);
    // R is replicated: the whole matrix on the 1 x 1 subcube slice.
    ASSERT_EQ(r.layout().row_procs * r.layout().col_procs, 1);
    EXPECT_TRUE(lin::is_upper_triangular(r.local()));
    lin::Matrix qg = gather(q, g.slice());
    EXPECT_LT(lin::orthogonality_error(qg), 1e-12);
    EXPECT_LT(lin::residual_error(a, qg, r.local()), 1e-13);
  });
}

TEST(Cqr1dTest, RReplicatedOnEveryRank) {
  const int p = 4;
  rt::Runtime::run(p, [&](rt::Comm& world) {
    grid::TunableGrid g(world, 1, p);
    lin::Matrix a = lin::hashed_matrix(63, 16, 4);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto res = ca_cqr2(da, g);
    // Allgather every rank's R and compare bitwise: the redundant
    // factorizations must agree exactly (identical reduced Gram inputs).
    const lin::Matrix& r = res.r.local();
    std::vector<double> mine(r.data(), r.data() + r.size());
    std::vector<double> all(mine.size() * p);
    world.allgather(mine, all);
    for (int rk = 1; rk < p; ++rk) {
      for (std::size_t i = 0; i < mine.size(); ++i) {
        EXPECT_EQ(all[rk * mine.size() + i], all[i]);
      }
    }
  });
}

TEST(Cqr1dTest, LayoutValidation) {
  rt::Runtime::run(4, [](rt::Comm& world) {
    grid::TunableGrid g(world, 1, 4);
    // Wrong row_procs.
    DistMatrix bad(16, 4, 2, 1, world.rank() % 2, 0);
    EXPECT_THROW((void)ca_cqr(bad, g), DimensionError);
  });
}

TEST(Cqr1dCostTest, AllreduceDominatedCommunication) {
  // Table I, 1D-CQR: alpha ~ log P, beta ~ n^2 -- independent of m.
  const int p = 8;
  const i64 n = 8;
  for (const i64 m : {i64{64}, i64{256}}) {
    rt::Runtime::run(p, [&](rt::Comm& world) {
      grid::TunableGrid g(world, 1, p);
      lin::Matrix a = lin::hashed_matrix(64, m, n);
      auto da = DistMatrix::from_global_on_tunable(a, g);
      // Charges of the factorization alone, not the grid's splits.
      const rt::CostCounters before = world.counters();
      (void)ca_cqr2(da, g);
      const rt::CostCounters used = world.counters() - before;
      // Two allreduces of n^2 words: beta <= 2 * 2n^2, alpha = 2 * 2 lg P.
      EXPECT_EQ(used.msgs, 2 * 2 * ceil_log2(p));
      EXPECT_LE(used.words, 4 * n * n);
      EXPECT_GT(used.words, 2 * n * n);
    });
  }
}

TEST(CaGramTest, ComputesGramOnSubcubeSlice) {
  const int c = 2, d = 4;
  rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    lin::Matrix a = lin::hashed_matrix(72, 16, 8);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto z = ca_gram(da, g);
    lin::Matrix zg = gather(z, g.subcube().slice());
    lin::Matrix expect(8, 8);
    lin::gram(1.0, a, 0.0, expect);
    EXPECT_LT(lin::max_abs_diff(zg, expect),
              1e-12 * (1.0 + lin::max_abs(expect)));
  });
}

TEST(CaGramTest, EverySubcubeOwnsTheSameGram) {
  // d/c = 4 subcubes must all own identical copies of Z.
  const int c = 2, d = 8;
  rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    lin::Matrix a = lin::hashed_matrix(73, 16, 4);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto z = ca_gram(da, g);
    lin::Matrix zg = gather(z, g.subcube().slice());
    lin::Matrix expect(4, 4);
    lin::gram(1.0, a, 0.0, expect);
    // Tolerance instead of equality: different subcubes sum the strided
    // allreduce in different orders.
    EXPECT_LT(lin::max_abs_diff(zg, expect), 1e-12)
        << "subcube " << g.subcube_index();
  });
}

TEST(CaCqrTest, SinglePassInvariants) {
  const int c = 2, d = 4;
  rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    lin::Matrix a = lin::hashed_matrix(74, 32, 8);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto res = ca_cqr(da, g);
    lin::Matrix qg = gather(res.q, g.slice());
    lin::Matrix rg = gather(res.r, g.subcube().slice());
    EXPECT_TRUE(lin::is_upper_triangular(rg));
    for (i64 i = 0; i < 8; ++i) EXPECT_GT(rg(i, i), 0.0);
    EXPECT_LT(lin::orthogonality_error(qg), 1e-11);
    EXPECT_LT(lin::residual_error(a, qg, rg), 1e-12);
  });
}

TEST(CaCqrTest, QReplicatedAcrossDepth) {
  const int c = 2, d = 2;
  rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    lin::Matrix a = lin::hashed_matrix(75, 8, 4);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto res = ca_cqr2(da, g);
    std::vector<double> mine(res.q.local().data(),
                             res.q.local().data() + res.q.local().size());
    std::vector<double> all(mine.size() * c);
    g.depth().allgather(mine, all);
    for (int zz = 0; zz < c; ++zz) {
      for (std::size_t i = 0; i < mine.size(); ++i) {
        EXPECT_DOUBLE_EQ(all[zz * mine.size() + i], mine[i]);
      }
    }
  });
}

TEST(CaCqrTest, BaseCaseKnobDoesNotChangeResult) {
  const int c = 2, d = 2;
  rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    lin::Matrix a = lin::hashed_matrix(76, 16, 8);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto res_deep = ca_cqr2(da, g, {.base_case = 2});
    auto res_shallow = ca_cqr2(da, g, {.base_case = 8});
    lin::Matrix q1 = gather(res_deep.q, g.slice());
    lin::Matrix q2 = gather(res_shallow.q, g.slice());
    EXPECT_LT(lin::max_abs_diff(q1, q2), 1e-11);
  });
}

TEST(CaCqrTest, IllConditionedThrowsEverywhere) {
  const int c = 2, d = 2;
  // kappa ~ 1e12 >> eps^{-1/2}: the Gram factorization must fail.
  Rng rng(77);
  lin::Matrix a = lin::with_cond(rng, 16, 8, 1e12);
  rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    EXPECT_THROW((void)ca_cqr2(da, g), NotSpdError);
  });
}

TEST(CaCqr3Test, ShiftedHandlesIllConditioning) {
  const int c = 2, d = 2;
  Rng rng(78);
  lin::Matrix a = lin::with_cond(rng, 16, 8, 1e9);
  rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto res = ca_cqr3(da, g);
    lin::Matrix qg = gather(res.q, g.slice());
    lin::Matrix rg = gather(res.r, g.subcube().slice());
    EXPECT_LT(lin::orthogonality_error(qg), 1e-11);
    EXPECT_LT(lin::residual_error(a, qg, rg), 1e-10);
  });
}

class InverseDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(InverseDepthSweep, SameFactorsAsFullInverse) {
  // The InverseDepth strategy changes the schedule, not the math: Q and R
  // must agree with the depth-0 result to rounding.
  const int depth = GetParam();
  const int c = 2, d = 4;
  rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    lin::Matrix a = lin::hashed_matrix(811, 32, 16);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto base = ca_cqr2(da, g, {.base_case = 4});
    auto alt = ca_cqr2(da, g, {.base_case = 4, .inverse_depth = depth});
    lin::Matrix q0 = gather(base.q, g.slice());
    lin::Matrix q1 = gather(alt.q, g.slice());
    lin::Matrix r0 = gather(base.r, g.subcube().slice());
    lin::Matrix r1 = gather(alt.r, g.subcube().slice());
    EXPECT_LT(lin::max_abs_diff(q0, q1), 1e-10) << "depth=" << depth;
    EXPECT_LT(lin::max_abs_diff(r0, r1), 1e-10 * (1.0 + lin::max_abs(r0)));
  });
}

INSTANTIATE_TEST_SUITE_P(Depths, InverseDepthSweep, ::testing::Values(1, 2));

TEST(InverseDepthTest, TradesFlopsForSynchronization) {
  // Paper Section III-A: deeper inversion cuts multiply flops (toward 2x)
  // and raises the synchronization (message) count.
  const int c = 2, d = 2;
  const i64 m = 64, n = 32;
  auto run_with = [&](int depth) {
    auto per_rank = rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
      grid::TunableGrid g(world, c, d);
      auto da = DistMatrix::from_global_on_tunable(
          lin::hashed_matrix(812, m, n), g);
      (void)ca_cqr2(da, g, {.base_case = 4, .inverse_depth = depth});
    });
    return rt::max_counters(per_rank);
  };
  const auto d0 = run_with(0);
  const auto d2 = run_with(2);
  EXPECT_LT(d2.flops, d0.flops);
  EXPECT_GT(d2.msgs, d0.msgs);
}

TEST(InverseDepthTest, IgnoredAtCEqualsOne) {
  // The 1D path already exploits triangular structure locally, and its
  // one redundant CholInv has no CFR3D recursion for base_case to cut.
  rt::Runtime::run(4, [&](rt::Comm& world) {
    grid::TunableGrid g(world, 1, 4);
    auto da = DistMatrix::from_global_on_tunable(
        lin::hashed_matrix(813, 16, 8), g);
    auto r0 = ca_cqr2(da, g);
    auto r1 = ca_cqr2(da, g, {.inverse_depth = 3});
    auto r2 = ca_cqr2(da, g, {.base_case = 2});
    EXPECT_EQ(gather(r0.q, g.slice()), gather(r1.q, g.slice()));
    EXPECT_EQ(gather(r0.q, g.slice()), gather(r2.q, g.slice()));
    EXPECT_EQ(r0.r.local(), r2.r.local());
  });
}

TEST(CaCqrCostTest, CommunicationShrinksWithLargerC) {
  // The headline claim (Table I): beta_1D ~ n^2 versus beta_CA ~
  // mn/(dc) + n^2/c^2.  For square-ish matrices -- exactly the regime the
  // paper says 1D-CQR2 cannot scale in -- the replicated Gram allreduce
  // dominates 1D and the c = P^(1/3) grid must move far fewer words.
  const i64 m = 64, n = 64;
  auto words_for = [&](int c, int d) {
    auto per_rank = rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
      grid::TunableGrid g(world, c, d);
      auto da = DistMatrix::from_global_on_tunable(
          lin::hashed_matrix(79, m, n), g);
      (void)ca_cqr2(da, g);
    });
    return rt::max_counters(per_rank).words;
  };
  const i64 w_1d = words_for(1, 64);  // P=64, 1D
  const i64 w_ca = words_for(4, 4);   // P=64, full cube
  EXPECT_LT(w_ca, w_1d);
}

TEST(CaCqrCostTest, SynchronizationGrowsWithC) {
  // The other side of the tradeoff: more messages with larger c.
  const i64 m = 64, n = 16;
  auto msgs_for = [&](int c, int d) {
    auto per_rank = rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
      grid::TunableGrid g(world, c, d);
      auto da = DistMatrix::from_global_on_tunable(
          lin::hashed_matrix(80, m, n), g);
      (void)ca_cqr2(da, g);
    });
    return rt::max_counters(per_rank).msgs;
  };
  EXPECT_GT(msgs_for(2, 4), msgs_for(1, 16));
}

}  // namespace
}  // namespace cacqr::core
