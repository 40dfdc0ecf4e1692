#include <gtest/gtest.h>

#include "cacqr/grid/grid.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/model/sweep.hpp"
#include "cacqr/tune/planner.hpp"

namespace cacqr::tune {
namespace {

MachineProfile profile() { return generic_profile(); }

TEST(ProblemKeyTest, CanonicalText) {
  EXPECT_EQ((ProblemKey{8192, 128, 8, 1}.text()),
            "m8192_n128_p8_t1_s2_bc0_fp64");
  EXPECT_EQ((ProblemKey{1, 1, 1, 4, 3, 64}.text()),
            "m1_n1_p1_t4_s3_bc64_fp64");
  EXPECT_EQ(
      (ProblemKey{8192, 128, 8, 1, 2, 0, Precision::mixed}.text()),
      "m8192_n128_p8_t1_s2_bc0_mixed");
}

TEST(PlannerTest, PassesScaleCholeskyFamilies) {
  const Planner planner(profile());
  const ProblemKey two{8192, 128, 8, 1, 2, 0};
  const ProblemKey three{8192, 128, 8, 1, 3, 0};
  auto find = [](const std::vector<Plan>& cands, const std::string& algo) {
    for (const Plan& p : cands) {
      if (p.algo == algo) return p;
    }
    return Plan{};
  };
  const Plan cqr2 = find(planner.candidates(two), "ca_cqr2");
  const Plan cqr3 = find(planner.candidates(three), "ca_cqr2");
  ASSERT_EQ(cqr2.grid(), cqr3.grid());
  EXPECT_DOUBLE_EQ(cqr3.predicted_seconds, cqr2.predicted_seconds * 1.5);
  // The Householder baseline ignores the passes knob.
  const Plan pg2 = find(planner.candidates(two), "pgeqrf_2d");
  const Plan pg3 = find(planner.candidates(three), "pgeqrf_2d");
  EXPECT_DOUBLE_EQ(pg3.predicted_seconds, pg2.predicted_seconds);
}

TEST(PlanTest, GridTagsMatchBenchConvention) {
  Plan p1d;
  p1d.algo = "ca_cqr2";
  p1d.c = 1;
  p1d.d = 8;
  EXPECT_EQ(p1d.grid(), "c1d8");
  Plan pca;
  pca.algo = "ca_cqr2";
  pca.c = 2;
  pca.d = 4;
  EXPECT_EQ(pca.grid(), "c2d4");
  Plan pge;
  pge.algo = "pgeqrf_2d";
  pge.pr = 4;
  pge.pc = 2;
  pge.block = 16;
  EXPECT_EQ(pge.grid(), "4x2b16");
}

TEST(PlanTest, JsonRoundTripRejectsNonsense) {
  Plan p;
  p.algo = "pgeqrf_2d";
  p.pr = 4;
  p.pc = 2;
  p.block = 32;
  p.predicted_seconds = 1.5;
  p.source = "model";
  auto back = Plan::from_json(p.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->pr, 4);
  EXPECT_EQ(back->block, 32);

  support::Json j = p.to_json();
  j.set("algo", "not_an_algo");
  EXPECT_FALSE(Plan::from_json(j).has_value());
  j = p.to_json();
  j.set("pr", -1);
  EXPECT_FALSE(Plan::from_json(j).has_value());
  j = p.to_json();
  j.set("schema", Plan::kSchemaVersion + 1);
  EXPECT_FALSE(Plan::from_json(j).has_value());
}

TEST(PlanTest, JsonRoundTripsKernelVariant) {
  Plan p;
  p.algo = "ca_cqr2";
  p.c = 1;
  p.d = 8;
  p.source = "model";
  p.kernel_variant = "avx2";
  auto back = Plan::from_json(p.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kernel_variant, "avx2");
  // Variant-less plans (heuristic source, pre-v2 semantics) stay valid.
  p.kernel_variant.clear();
  back = Plan::from_json(p.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->kernel_variant.empty());
}

TEST(PlannerTest, CandidatesCarryActiveKernelVariant) {
  const Planner planner(profile());
  const std::string active =
      lin::kernel::variant_name(lin::kernel::active_variant());
  for (const Plan& p : planner.candidates({8192, 128, 8, 1})) {
    EXPECT_EQ(p.kernel_variant, active) << p.algo << " " << p.grid();
  }
}

TEST(ProfileTest, MachineForSelectsVariantCalibration) {
  MachineProfile p = generic_profile();
  p.variants.push_back({"avx2", p.machine.gamma_s / 2.0,
                        p.machine.peak_gflops_node * 2.0,
                        p.machine.gamma_s / 4.0,
                        p.machine.peak_gflops_node * 4.0, {{1, 1.0}}});
  const model::Machine base = p.machine_at(1);
  const model::Machine fast = p.machine_for("avx2", 1);
  EXPECT_DOUBLE_EQ(fast.gamma_s, base.gamma_s / 2.0);
  // alpha/beta are variant-independent (network terms).
  EXPECT_DOUBLE_EQ(fast.alpha_s, base.alpha_s);
  EXPECT_DOUBLE_EQ(fast.beta_s, base.beta_s);
  // Unknown variants fall back to the profile's headline machine.
  const model::Machine fallback = p.machine_for("neon", 1);
  EXPECT_DOUBLE_EQ(fallback.gamma_s, base.gamma_s);
}

TEST(PlannerTest, EnumeratesAllThreeVariantFamilies) {
  const Planner planner(profile());
  const auto cands = planner.candidates({4096, 256, 8, 1});
  ASSERT_FALSE(cands.empty());
  bool has_1d = false;
  bool has_ca = false;
  bool has_pg = false;
  for (const Plan& p : cands) {
    has_1d |= p.algo == "ca_cqr2" && p.c == 1;
    has_ca |= p.algo == "ca_cqr2";
    has_pg |= p.algo == "pgeqrf_2d";
    EXPECT_EQ(p.source, "model");
    EXPECT_GT(p.predicted_seconds, 0.0);
  }
  EXPECT_TRUE(has_1d);
  EXPECT_TRUE(has_ca);
  EXPECT_TRUE(has_pg);
  // Sorted ascending by predicted time.
  for (std::size_t i = 1; i < cands.size(); ++i) {
    EXPECT_LE(cands[i - 1].predicted_seconds, cands[i].predicted_seconds);
  }
}

TEST(PlannerTest, EveryCandidateIsExecutable) {
  const Planner planner(profile());
  for (const int p : {1, 2, 4, 8, 16}) {
    // {3, 2}: fewer rows than ranks for p >= 4; the driver pads rows, so
    // the c = 1 grid must still be offered.
    for (const auto& [m, n] : {std::pair<i64, i64>{1 << 14, 1 << 6},
                               {512, 512}, {100, 7}, {3, 2}}) {
      if (m < n) continue;
      bool has_1d = false;
      for (const Plan& plan : planner.candidates({m, n, p, 1})) {
        if (plan.algo == "ca_cqr2") {
          EXPECT_TRUE(grid::TunableGrid::valid_shape(p, plan.c, plan.d))
              << plan.grid() << " p=" << p;
          EXPECT_LE(static_cast<i64>(plan.c) * plan.c, n);
          EXPECT_TRUE(plan.c == 1 || plan.d <= m)
              << plan.grid() << " m=" << m;
          has_1d |= plan.c == 1;
        } else {
          EXPECT_EQ(plan.pr * plan.pc, p) << plan.grid();
          EXPECT_GE(plan.block, 16);
        }
      }
      EXPECT_TRUE(has_1d) << "m=" << m << " n=" << n << " p=" << p;
    }
  }
}

TEST(PlannerTest, PlanIsDeterministic) {
  const Planner planner(profile());
  const ProblemKey key{16384, 128, 8, 1};
  const Plan a = planner.plan(key);
  const Plan b = planner.plan(key);
  EXPECT_EQ(a.algo, b.algo);
  EXPECT_EQ(a.grid(), b.grid());
  EXPECT_EQ(a.predicted_seconds, b.predicted_seconds);
}

TEST(PlannerTest, ExtremelyTallSkinnyAvoidsWideGrids) {
  // 2^24 x 32 on 8 ranks: the communication-optimal c is ~(Pn/m)^(1/3)
  // << 1, so a CholeskyQR-family 1D layout must win over c=2 grids and
  // the Householder baseline (the paper's Table I regime).
  const Planner planner(profile());
  const Plan p = planner.plan({i64{1} << 24, 32, 8, 1});
  EXPECT_TRUE(p.algo == "ca_cqr2" && p.c == 1) << p.algo << " " << p.grid();
}

TEST(PlannerTest, ThreadSpeedupLowersGammaOnly) {
  MachineProfile prof = profile();
  prof.scaling = {{1, 1.0}, {4, 3.0}};
  EXPECT_DOUBLE_EQ(prof.thread_speedup(1), 1.0);
  EXPECT_DOUBLE_EQ(prof.thread_speedup(2), 1.0);  // no entry: conservative
  EXPECT_DOUBLE_EQ(prof.thread_speedup(4), 3.0);
  EXPECT_DOUBLE_EQ(prof.thread_speedup(64), 3.0);  // never extrapolates
  const model::Machine m1 = prof.machine_at(1);
  const model::Machine m4 = prof.machine_at(4);
  EXPECT_DOUBLE_EQ(m4.gamma_s * 3.0, m1.gamma_s);
  EXPECT_DOUBLE_EQ(m4.alpha_s, m1.alpha_s);
  EXPECT_DOUBLE_EQ(m4.beta_s, m1.beta_s);
}

TEST(PlannerTest, FingerprintSeparatesProfiles) {
  MachineProfile a = profile();
  MachineProfile b = profile();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.machine.gamma_s *= 2.0;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  MachineProfile c = profile();
  c.scaling.push_back({2, 1.5});
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(PlannerTest, RejectsBadKeys) {
  const Planner planner(profile());
  EXPECT_THROW((void)planner.candidates({10, 20, 4, 1}), Error);
  EXPECT_THROW((void)planner.candidates({10, 5, 0, 1}), Error);
}

TEST(ProfileTest, JsonRejectsBrokenProfiles) {
  const MachineProfile p = profile();
  auto ok = MachineProfile::from_json(p.to_json());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->fingerprint(), p.fingerprint());

  support::Json j = p.to_json();
  j.set("gamma_s", 0.0);
  EXPECT_FALSE(MachineProfile::from_json(j).has_value());
  j = p.to_json();
  j.set("schema", MachineProfile::kSchemaVersion + 1);
  EXPECT_FALSE(MachineProfile::from_json(j).has_value());
  EXPECT_FALSE(MachineProfile::from_json(support::Json("text")).has_value());
}

}  // namespace
}  // namespace cacqr::tune
