/// \file test_mixed_precision.cpp
/// \brief The precision axis of the CholeskyQR drivers: fp64 stays the
///        bit-identical default, `mixed` recovers fp64-level orthogonality
///        on well-conditioned inputs via the fp64 correction pass, `fp32`
///        degrades gracefully, high condition numbers fall back to the
///        full-fp64 shifted CholeskyQR3 through auto_shift, and every mode
///        is bitwise deterministic across budgets and overlap settings.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <span>
#include <string>

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/rng.hpp"

namespace cacqr::core {
namespace {

namespace parallel = lin::parallel;

struct BudgetGuard {
  int saved = parallel::thread_budget();
  ~BudgetGuard() { parallel::set_thread_budget(saved); }
};

struct OverlapGuard {
  bool saved = rt::overlap_enabled();
  ~OverlapGuard() { rt::set_overlap_enabled(saved); }
};

TEST(MixedPrecisionTest, Fp64OptionIsTheBitIdenticalDefault) {
  rt::Runtime::run(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(91, 96, 16);
    const FactorizeResult def = factorize(a, world);
    const FactorizeResult f64 =
        factorize(a, world, {.precision = Precision::fp64});
    EXPECT_EQ(lin::max_abs_diff(def.q, f64.q), 0.0);
    EXPECT_EQ(lin::max_abs_diff(def.r, f64.r), 0.0);
  });
}

TEST(MixedPrecisionTest, MixedMeetsFp64TolerancesWhenWellConditioned) {
  // The headline claim: an fp32 first-pass Gram plus the fp64 second
  // pass (CholeskyQR2's correction sweep) lands at fp64-level
  // orthogonality and residual on well-conditioned inputs -- both on the
  // 1D family (c = 1 forces the 1D pass's Gram) and on a c > 1 CA grid
  // (the gemm-form Gram assembly).
  struct Grid {
    int ranks;
    int c;
    int d;
  };
  for (const Grid g : {Grid{4, 1, 4}, Grid{8, 2, 2}}) {
    rt::Runtime::run(g.ranks, [&](rt::Comm& world) {
      const lin::Matrix a = lin::hashed_matrix(92, 160, 16);
      const FactorizeResult res = factorize(
          a, world, {.c = g.c, .d = g.d, .precision = Precision::mixed});
      EXPECT_FALSE(res.used_shift) << "c=" << g.c;
      EXPECT_LT(lin::orthogonality_error(res.q), 1e-12) << "c=" << g.c;
      EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-12) << "c=" << g.c;
      EXPECT_TRUE(lin::is_upper_triangular(res.r));
    });
  }
}

TEST(MixedPrecisionTest, EnvVarMovesTheDefaultPrecision) {
  const char* saved = std::getenv("CACQR_PRECISION");
  const std::string saved_val = saved ? saved : "";
  ::setenv("CACQR_PRECISION", "mixed", 1);
  EXPECT_EQ(default_precision(), Precision::mixed);
  EXPECT_EQ(FactorizeOptions{}.precision, Precision::mixed);
  ::setenv("CACQR_PRECISION", "fp32", 1);
  EXPECT_EQ(default_precision(), Precision::fp32);
  ::setenv("CACQR_PRECISION", "float64", 1);  // malformed: loud failure
  EXPECT_THROW((void)default_precision(), Error);
  ::unsetenv("CACQR_PRECISION");
  EXPECT_EQ(default_precision(), Precision::fp64);
  if (saved) {
    ::setenv("CACQR_PRECISION", saved_val.c_str(), 1);
  }
}

TEST(MixedPrecisionTest, MixedActuallyTakesTheFp32Lane) {
  // Guard against the precision knob silently degenerating to fp64: the
  // fp32 Gram rounds differently, so the factors cannot be bit-identical
  // to the fp64 run (they agree only to fp64-level tolerance, above).
  rt::Runtime::run(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(93, 128, 16);
    const FactorizeResult f64 = factorize(a, world);
    const FactorizeResult mixed =
        factorize(a, world, {.precision = Precision::mixed});
    EXPECT_GT(lin::max_abs_diff(f64.q, mixed.q), 0.0);
  });
}

TEST(MixedPrecisionTest, Fp32ModeDegradesGracefully) {
  // Both passes' Grams in fp32: orthogonality is fp32-level (not fp64),
  // but the residual stays fp64-level -- Q is produced by actually
  // applying the computed R1/R2 in fp64, so A ~= QR holds regardless of
  // how accurate the Gram was.
  rt::Runtime::run(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(94, 160, 16);
    const FactorizeResult res =
        factorize(a, world, {.precision = Precision::fp32});
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-4);
    EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-12);
  });
}

TEST(MixedPrecisionTest, HighCondFallsBackToFp64ShiftedCqr3) {
  // kappa ~ 1e6: comfortably inside fp64 CholeskyQR2's range (kappa^2 ~
  // 1e12 << 1/eps64) but far beyond fp32's (kappa^2 >> 1/eps32 ~ 1.7e7),
  // so the fp32 Gram's Cholesky must break down and auto_shift must
  // rerun the FULL-fp64 shifted CholeskyQR3 -- same quality as the fp64
  // fallback path.
  Rng rng(95);
  const lin::Matrix a = lin::with_cond(rng, 64, 8, 1e6);
  rt::Runtime::run(4, [&](rt::Comm& world) {
    const FactorizeResult f64 = factorize(a, world);
    EXPECT_FALSE(f64.used_shift);  // fp64 handles this kappa directly
    const FactorizeResult mixed =
        factorize(a, world, {.precision = Precision::mixed});
    EXPECT_TRUE(mixed.used_shift);
    EXPECT_LT(lin::orthogonality_error(mixed.q), 1e-10);
    EXPECT_LT(lin::residual_error(a, mixed.q, mixed.r), 1e-9);
  });
}

TEST(MixedPrecisionTest, HighCondWithoutAutoShiftPropagates) {
  Rng rng(96);
  const lin::Matrix a = lin::with_cond(rng, 64, 8, 1e6);
  rt::Runtime::run(4, [&](rt::Comm& world) {
    EXPECT_THROW(
        (void)factorize(a, world,
                        {.auto_shift = false, .precision = Precision::mixed}),
        NotSpdError);
  });
}

TEST(MixedPrecisionTest, ThreePassIgnoresPrecision) {
  // The shifted CholeskyQR3 path is always full fp64; requesting mixed
  // with passes = 3 must produce bit-identical factors to plain fp64.
  rt::Runtime::run(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(97, 64, 8);
    const FactorizeResult f64 = factorize(a, world, {.passes = 3});
    const FactorizeResult mixed = factorize(
        a, world, {.passes = 3, .precision = Precision::mixed});
    EXPECT_EQ(lin::max_abs_diff(f64.q, mixed.q), 0.0);
    EXPECT_EQ(lin::max_abs_diff(f64.r, mixed.r), 0.0);
  });
}

TEST(MixedPrecisionTest, BitwiseDeterministicAcrossBudgetsAndOverlap) {
  BudgetGuard bguard;
  OverlapGuard oguard;
  for (const Precision prec : {Precision::mixed, Precision::fp32}) {
    parallel::set_thread_budget(1);
    rt::set_overlap_enabled(false);
    // Rank 0 publishes its reference factors (the body may execute in a
    // forked child, so captured writes would not reach this caller).
    const rt::RunOutput ref_run =
        rt::Runtime::run_collect(4, [&](rt::Comm& world) {
          const lin::Matrix a = lin::hashed_matrix(98, 128, 16);
          const FactorizeResult res =
              factorize(a, world, {.precision = prec});
          if (world.rank() == 0) {
            const double dims[] = {static_cast<double>(res.q.rows()),
                                   static_cast<double>(res.q.cols()),
                                   static_cast<double>(res.r.rows()),
                                   static_cast<double>(res.r.cols())};
            world.publish(dims);
            world.publish(std::span<const double>(
                res.q.data(), static_cast<std::size_t>(res.q.size())));
            world.publish(std::span<const double>(
                res.r.data(), static_cast<std::size_t>(res.r.size())));
          }
        });
    const std::vector<double>& blob = ref_run.published[0];
    ASSERT_GE(blob.size(), 4u);
    std::size_t off = 4;
    auto unpack = [&](i64 rows, i64 cols) {
      lin::Matrix m(rows, cols);
      std::memcpy(m.data(), blob.data() + off,
                  static_cast<std::size_t>(m.size()) * sizeof(double));
      off += static_cast<std::size_t>(m.size());
      return m;
    };
    const lin::Matrix ref_q = unpack(static_cast<i64>(blob[0]),
                                     static_cast<i64>(blob[1]));
    const lin::Matrix ref_r = unpack(static_cast<i64>(blob[2]),
                                     static_cast<i64>(blob[3]));
    for (const int budget : {1, 4}) {
      for (const bool overlap : {false, true}) {
        parallel::set_thread_budget(budget);
        rt::set_overlap_enabled(overlap);
        rt::Runtime::run(4, [&](rt::Comm& world) {
          const lin::Matrix a = lin::hashed_matrix(98, 128, 16);
          const FactorizeResult res =
              factorize(a, world, {.precision = prec});
          EXPECT_EQ(lin::max_abs_diff(res.q, ref_q), 0.0)
              << precision_name(prec) << " t=" << budget
              << " overlap=" << overlap;
          EXPECT_EQ(lin::max_abs_diff(res.r, ref_r), 0.0)
              << precision_name(prec) << " t=" << budget
              << " overlap=" << overlap;
        });
      }
    }
  }
}

TEST(MixedPrecisionTest, Cqr2_1dDirectMixedPass) {
  // The DistMatrix-level entry point on the c = 1 grid: ca_cqr2's
  // precision option maps `mixed` onto the first pass only, and the
  // result still meets fp64 tolerances.
  const int p = 4;
  rt::Runtime::run(p, [&](rt::Comm& world) {
    grid::TunableGrid g(world, 1, p);
    const lin::Matrix a = lin::hashed_matrix(99, 64, 8);
    auto da = dist::DistMatrix::from_global_on_tunable(a, g);
    auto [q, r] = ca_cqr2(da, g, {.precision = Precision::mixed});
    const lin::Matrix qg = gather(q, g.slice());
    EXPECT_LT(lin::orthogonality_error(qg), 1e-12);
    EXPECT_LT(lin::residual_error(a, qg, r.local()), 1e-12);
  });
}

}  // namespace
}  // namespace cacqr::core
