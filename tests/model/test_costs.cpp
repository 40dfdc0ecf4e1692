#include <gtest/gtest.h>

#include <cmath>

#include "cacqr/model/costs.hpp"

namespace cacqr::model {
namespace {

TEST(CostArithmeticTest, SumAndScale) {
  Cost a{2, 100, 1000, 50};
  Cost b{3, 200, 500, 80};
  Cost s = a + b;
  EXPECT_DOUBLE_EQ(s.alpha, 5);
  EXPECT_DOUBLE_EQ(s.beta, 300);
  EXPECT_DOUBLE_EQ(s.gamma, 1500);
  EXPECT_DOUBLE_EQ(s.mem, 80);  // max, not sum: phases reuse memory
  Cost t = a.times(3.0);
  EXPECT_DOUBLE_EQ(t.alpha, 6);
  EXPECT_DOUBLE_EQ(t.beta, 300);
}

TEST(CostArithmeticTest, TimeUnderMachine) {
  Machine m;
  m.alpha_s = 1e-6;
  m.beta_s = 1e-9;
  m.gamma_s = 1e-11;
  Cost c{10, 1e6, 1e9, 0};
  EXPECT_NEAR(c.time(m), 10e-6 + 1e-3 + 1e-2, 1e-12);
}

TEST(CollectiveCostTest, SingleRankIsFree) {
  EXPECT_DOUBLE_EQ(cost_bcast(100, 1).alpha, 0);
  EXPECT_DOUBLE_EQ(cost_allreduce(100, 1).beta, 0);
  EXPECT_DOUBLE_EQ(cost_allgather(100, 1).alpha, 0);
  EXPECT_DOUBLE_EQ(cost_transpose(100, 1).beta, 0);
}

TEST(CollectiveCostTest, PaperFormulas) {
  // Section II-B: Bcast/Allreduce 2 lg P alpha + 2n beta (large-P limit);
  // Allgather lg P alpha + n beta.
  const double n = 1024, p = 64;
  EXPECT_DOUBLE_EQ(cost_bcast(n, p).alpha, 12);
  EXPECT_NEAR(cost_bcast(n, p).beta, 2 * n, 2 * n / p + 1);
  EXPECT_DOUBLE_EQ(cost_allreduce(n, p).alpha, 12);
  EXPECT_DOUBLE_EQ(cost_allgather(n, p).alpha, 6);
  EXPECT_NEAR(cost_allgather(n, p).beta, n, n / p + 1);
  EXPECT_DOUBLE_EQ(cost_transpose(n, p).alpha, 1);
  EXPECT_DOUBLE_EQ(cost_transpose(n, p).beta, n);
}

TEST(Mm3dCostTest, TableOneScaling) {
  // Table I: MM3D beta = (mn + nk + mk)/P^(2/3): doubling g (8x ranks)
  // cuts words 4x (in the large-P limit where (P-1)/P ~ 1); gamma = mnk/P:
  // cuts flops 8x exactly.
  const Cost c1 = cost_mm3d(4096, 4096, 4096, 16);
  const Cost c2 = cost_mm3d(4096, 4096, 4096, 32);
  EXPECT_NEAR(c1.beta / c2.beta, 4.0, 0.2);
  EXPECT_NEAR(c1.gamma / c2.gamma, 8.0, 1e-9);
  // alpha grows logarithmically.
  EXPECT_DOUBLE_EQ(c2.alpha - c1.alpha, 6.0);  // 6 collect. stages * lg 2
}

TEST(Cfr3dCostTest, SequentialDegenerate) {
  const Cost c = cost_cfr3d(256, 1);
  EXPECT_DOUBLE_EQ(c.alpha, 0);
  EXPECT_DOUBLE_EQ(c.beta, 0);
  EXPECT_NEAR(c.gamma, 2.0 * 256 * 256 * 256 / 3.0, 5e5);
}

TEST(Cfr3dCostTest, GammaDominatedByNCubedOverP) {
  // Table I: CFR3D gamma ~ n^3/P.
  const double n = 4096, g = 8;  // P = 512
  const Cost c = cost_cfr3d(n, g);
  const double n3_over_p = n * n * n / (g * g * g);
  EXPECT_GT(c.gamma, n3_over_p);
  EXPECT_LT(c.gamma, 4.0 * n3_over_p);
}

TEST(Cfr3dCostTest, BaseCaseKnobTradesAlphaForBeta) {
  const double n = 4096, g = 4;
  const Cost deep = cost_cfr3d(n, g, 64);      // more recursion levels
  const Cost shallow = cost_cfr3d(n, g, 1024); // fewer
  EXPECT_GT(deep.alpha, shallow.alpha);
  EXPECT_LT(deep.beta, shallow.beta);
}

TEST(CaCqr2CostTest, OneDSpecialCaseMatchesPaperTable) {
  // Table I, 1D-CQR: alpha ~ log P, beta ~ n^2, gamma ~ mn^2/P + n^3.
  const double m = 1 << 22, n = 256, p = 256;
  const Cost c = cost_ca_cqr2(m, n, 1, p);
  EXPECT_LT(c.alpha, 10 * std::log2(p));
  // Two passes, each one Allreduce of the n x n Gram matrix (2n^2 words);
  // the R2*R1 composition is local at c == 1.
  EXPECT_NEAR(c.beta, 2 * 2 * n * n * (p - 1) / p, n * n / 4);
  const double gamma_expect = 2 * (2 * m * n * n / p + 2.0 / 3 * n * n * n);
  EXPECT_NEAR(c.gamma / gamma_expect, 1.0, 0.35);
}

TEST(CaCqr2CostTest, InterpolatesBetween1DAnd3D) {
  // For fixed P, sweeping c in [1, P^(1/3)] must trade alpha up / beta
  // down (for a square-ish matrix), with both endpoints consistent.
  const double m = 1 << 16, n = 1 << 14;
  const double p = 4096;
  const Cost c1 = cost_ca_cqr2(m, n, 1, p);
  const Cost c4 = cost_ca_cqr2(m, n, 4, 256);
  const Cost c16 = cost_ca_cqr2(m, n, 16, 16);
  EXPECT_LT(c1.alpha, c4.alpha);
  EXPECT_LT(c4.alpha, c16.alpha);
  EXPECT_GT(c1.beta, c4.beta);
  EXPECT_GT(c4.beta, c16.beta);
  EXPECT_GT(c1.gamma, c16.gamma);
}

TEST(CaCqr2CostTest, OptimalGridMatchesTableOneBound) {
  // Last Table I row: with c = (Pn/m)^(1/3), beta ~ (mn^2/P)^(2/3).
  const double m = 1 << 24, n = 1 << 12, p = 4096;
  const double c_opt = std::cbrt(p * n / m);  // = cbrt(4096*4096/2^24) = 1
  const double c_use = std::max(1.0, c_opt);
  const Cost c = cost_ca_cqr2(m, n, c_use, p / (c_use * c_use));
  const double bound = std::pow(m * n * n / p, 2.0 / 3.0);
  EXPECT_LT(c.beta, 40.0 * bound);
}

TEST(PgeqrfCostTest, AlphaScalesWithN) {
  // ScaLAPACK QR: alpha ~ n log pr (per-column allreduces).
  const Cost c1 = cost_pgeqrf_2d(1 << 20, 1 << 10, 64, 16, 32);
  const Cost c2 = cost_pgeqrf_2d(1 << 20, 1 << 11, 64, 16, 32);
  EXPECT_NEAR(c2.alpha / c1.alpha, 2.0, 0.2);
}

TEST(PgeqrfCostTest, GammaNearHouseholderOverP) {
  // Panel factorization and T formation are only pr-parallel (the panel
  // lives on one process column), adding ~2 b pc / n of overhead relative
  // to the Householder count; keep that term small to test the bulk.
  const double m = 1 << 20, n = 1 << 12, pr = 256, pc = 4;
  const Cost c = cost_pgeqrf_2d(m, n, pr, pc, 16, /*form_q=*/false);
  const double hh = (2 * m * n * n - 2.0 / 3 * n * n * n) / (pr * pc);
  EXPECT_NEAR(c.gamma / hh, 1.0, 0.15);
}

TEST(PgeqrfCostTest, PanelBottleneckGrowsWithPc) {
  // The same matrix on a wider grid pays more serialized panel work.
  const double m = 1 << 20, n = 1 << 10;
  const Cost tall = cost_pgeqrf_2d(m, n, 256, 4, 32, false);
  const Cost wide = cost_pgeqrf_2d(m, n, 4, 256, 32, false);
  EXPECT_GT(wide.gamma, tall.gamma);
}

TEST(TsqrCostTest, LatencyOptimalButBetaLogP) {
  const double m = 1 << 24, n = 512;
  const Cost c64 = cost_tsqr(m, n, 64);
  const Cost c4096 = cost_tsqr(m, n, 4096);
  // alpha ~ 2 log P + bcast.
  EXPECT_LT(c4096.alpha, 5 * std::log2(4096));
  // beta grows with log P (n^2 log P), unlike CQR2's flat n^2 terms.
  EXPECT_GT(c4096.beta, 1.5 * c64.beta);
}

TEST(MachineTest, PaperBalanceRatio) {
  // Section IV: "the ratio of peak flops to injection bandwidth is
  // roughly 8X higher on Stampede2".
  const Machine s2 = stampede2();
  const Machine bw = bluewaters();
  const double s2_balance = s2.peak_gflops_node * 1e9 / 12.5e9;
  const double bw_balance = bw.peak_gflops_node * 1e9 / 9.6e9;
  EXPECT_NEAR(s2_balance / bw_balance, 7.4, 1.0);
  // The per-rank calibrated balance preserves the ordering.
  EXPECT_GT(s2.flops_per_word(), 2.0 * bw.flops_per_word());
}

TEST(MachineTest, GflopsPerNodeConvention) {
  // 2mn^2 - 2n^3/3 over time and nodes.
  const double m = 1024, n = 64;
  const double flops = 2 * m * n * n - 2.0 / 3 * n * n * n;
  EXPECT_NEAR(gflops_per_node(m, n, 1.0, 2.0), flops / 2e9, 1e-12);
}

}  // namespace
}  // namespace cacqr::model
