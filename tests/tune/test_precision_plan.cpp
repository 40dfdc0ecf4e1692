/// \file test_precision_plan.cpp
/// \brief The planner's precision axis: per-precision machine selection
///        from the v3 profile schema, Plan JSON round-trips of the
///        precision tag, and mixed/fp32 scoring of the CholeskyQR
///        families against the fp64 baseline.

#include <gtest/gtest.h>

#include "cacqr/lin/kernel.hpp"
#include "cacqr/tune/planner.hpp"

namespace cacqr::tune {
namespace {

/// The first candidate of `algo` (on grid column count `c`, when given).
const Plan* find_algo(const std::vector<Plan>& cands, const std::string& algo,
                      int c = 0) {
  for (const Plan& p : cands) {
    if (p.algo == algo && (c == 0 || p.c == c)) return &p;
  }
  return nullptr;
}

TEST(PrecisionPlanTest, PlanJsonRoundTripsPrecision) {
  Plan p;
  p.algo = "ca_cqr2";
  p.c = 1;
  p.d = 8;
  p.source = "model";
  p.precision = Precision::mixed;
  auto back = Plan::from_json(p.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->precision, Precision::mixed);

  p.precision = Precision::fp32;
  back = Plan::from_json(p.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->precision, Precision::fp32);

  // An unknown precision spelling is corruption, not a default.
  support::Json j = p.to_json();
  j.set("precision", "fp16");
  EXPECT_FALSE(Plan::from_json(j).has_value());
}

TEST(PrecisionPlanTest, CandidatesStampRequestedPrecision) {
  const Planner planner(generic_profile());
  for (const Precision prec :
       {Precision::fp64, Precision::mixed, Precision::fp32}) {
    for (const Plan& p :
         planner.candidates({8192, 128, 8, 1, 2, 0, prec})) {
      EXPECT_EQ(p.precision, prec) << p.algo << " " << p.grid();
    }
  }
}

TEST(PrecisionPlanTest, MixedLowersCholeskyFamilyScoresOnly) {
  // generic_profile's nominal fp32 lane runs at twice the fp64 rate, so
  // under `mixed` every CholeskyQR candidate must get strictly cheaper
  // (one Gram stage at halved beta and gamma32) while the Householder
  // baseline -- no fp32 lane -- scores identically.  `fp32` discounts
  // both passes, so it undercuts `mixed` in turn.
  const Planner planner(generic_profile());
  const ProblemKey f64{8192, 128, 8, 1};
  const ProblemKey mixed{8192, 128, 8, 1, 2, 0, Precision::mixed};
  const ProblemKey fp32{8192, 128, 8, 1, 2, 0, Precision::fp32};
  const auto c64 = planner.candidates(f64);
  const auto cmx = planner.candidates(mixed);
  const auto c32 = planner.candidates(fp32);
  for (const int c : {1, 2}) {
    const Plan* p64 = find_algo(c64, "ca_cqr2", c);
    const Plan* pmx = find_algo(cmx, "ca_cqr2", c);
    const Plan* p32 = find_algo(c32, "ca_cqr2", c);
    ASSERT_NE(p64, nullptr) << "c=" << c;
    ASSERT_NE(pmx, nullptr) << "c=" << c;
    ASSERT_NE(p32, nullptr) << "c=" << c;
    EXPECT_LT(pmx->predicted_seconds, p64->predicted_seconds) << "c=" << c;
    EXPECT_LT(p32->predicted_seconds, pmx->predicted_seconds) << "c=" << c;
  }
  const Plan* pg64 = find_algo(c64, "pgeqrf_2d");
  const Plan* pgmx = find_algo(cmx, "pgeqrf_2d");
  ASSERT_NE(pg64, nullptr);
  ASSERT_NE(pgmx, nullptr);
  EXPECT_DOUBLE_EQ(pgmx->predicted_seconds, pg64->predicted_seconds);
}

TEST(PrecisionPlanTest, ThreePassKeysIgnorePrecision) {
  // The 3-pass shifted driver is always full fp64, so a passes = 3 key
  // scores identically whatever precision it carries.
  const Planner planner(generic_profile());
  const auto f64 = planner.candidates({8192, 128, 8, 1, 3, 0});
  const auto mixed =
      planner.candidates({8192, 128, 8, 1, 3, 0, Precision::mixed});
  const Plan* p64 = find_algo(f64, "ca_cqr2", 1);
  const Plan* pmx = find_algo(mixed, "ca_cqr2", 1);
  ASSERT_NE(p64, nullptr);
  ASSERT_NE(pmx, nullptr);
  EXPECT_DOUBLE_EQ(pmx->predicted_seconds, p64->predicted_seconds);
}

TEST(ProfilePrecisionTest, MachineForSelectsF32Gamma) {
  MachineProfile p = generic_profile();
  const model::Machine f64 = p.machine_for("generic", 1);
  const model::Machine f32 = p.machine_for("generic", 1, Precision::fp32);
  // generic_profile's nominal fp32 lane: textbook 2x.
  EXPECT_DOUBLE_EQ(f32.gamma_s, f64.gamma_s / 2.0);
  EXPECT_DOUBLE_EQ(f32.peak_gflops_node, 2.0 * f64.peak_gflops_node);
  // Network terms are precision-independent (the halved beta is a
  // payload property, charged by the word counters, not the machine).
  EXPECT_DOUBLE_EQ(f32.alpha_s, f64.alpha_s);
  EXPECT_DOUBLE_EQ(f32.beta_s, f64.beta_s);
}

TEST(ProfilePrecisionTest, UnmeasuredF32LaneReusesFp64Rate) {
  // A pre-v3-style calibration (gamma32_s == 0) must conservatively
  // fall back to the fp64 rate instead of claiming infinite speed.
  MachineProfile p = generic_profile();
  p.variants = {{"generic", p.machine.gamma_s, p.machine.peak_gflops_node,
                 0.0, 0.0, {{1, 1.0}}}};
  const model::Machine f32 = p.machine_for("generic", 1, Precision::fp32);
  EXPECT_DOUBLE_EQ(f32.gamma_s, p.machine.gamma_s);
  EXPECT_DOUBLE_EQ(f32.peak_gflops_node, p.machine.peak_gflops_node);
}

TEST(ProfilePrecisionTest, LoadedProfileLackingActiveVariantFallsBack) {
  // A profile calibrated on another machine (or by an older build) may
  // not list the variant this host's dispatcher actually runs.  After a
  // JSON round-trip -- the path a loaded CACQR_TUNE_DIR profile takes --
  // machine_for(active) must fall back to the headline machine, for both
  // precisions, rather than misattributing another variant's rates.
  const std::string active =
      lin::kernel::variant_name(lin::kernel::active_variant());
  MachineProfile p = generic_profile();
  p.variants = {{active + "_other", p.machine.gamma_s / 3.0,
                 p.machine.peak_gflops_node * 3.0,
                 p.machine.gamma_s / 6.0,
                 p.machine.peak_gflops_node * 6.0,
                 {{1, 1.0}}}};
  const auto loaded = MachineProfile::from_json(p.to_json());
  ASSERT_TRUE(loaded.has_value());
  const model::Machine base = loaded->machine_at(1);
  const model::Machine got = loaded->machine_for(active, 1);
  EXPECT_DOUBLE_EQ(got.gamma_s, base.gamma_s);
  const model::Machine got32 =
      loaded->machine_for(active, 1, Precision::fp32);
  EXPECT_DOUBLE_EQ(got32.gamma_s, base.gamma_s);
  // The listed (non-active) variant is still reachable by its own name.
  const model::Machine other =
      loaded->machine_for(active + "_other", 1, Precision::fp32);
  EXPECT_DOUBLE_EQ(other.gamma_s, base.gamma_s / 6.0);
}

TEST(ProfilePrecisionTest, JsonRoundTripsF32LaneAndFingerprintSeesIt) {
  MachineProfile p = generic_profile();
  const auto back = MachineProfile::from_json(p.to_json());
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->variants.size(), p.variants.size());
  EXPECT_EQ(back->variants[0].gamma32_s, p.variants[0].gamma32_s);
  EXPECT_EQ(back->variants[0].peak_gflops32, p.variants[0].peak_gflops32);
  EXPECT_EQ(back->fingerprint(), p.fingerprint());
  // Two profiles differing only in the fp32 rate plan differently, so
  // they must key the plan cache differently.
  MachineProfile q = generic_profile();
  q.variants[0].gamma32_s *= 2.0;
  EXPECT_NE(q.fingerprint(), p.fingerprint());
}

}  // namespace
}  // namespace cacqr::tune
