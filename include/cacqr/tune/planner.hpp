#pragma once
/// \file planner.hpp
/// \brief The autotuning planner: enumerate every way this library can
///        factor an (m, n) matrix on P ranks, score each against a
///        calibrated MachineProfile, and return the winner as a
///        tune::Plan.
///
/// The paper's headline figures plot "the best performing choice of
/// processor grid at each node count" -- tuning IS the algorithm's win
/// condition.  The planner makes that tuning a first-class, cacheable
/// artifact:
///
///   candidates(key) -> every valid configuration across both variant
///     families, sorted by modeled time ascending:
///       * ca_cqr2     -- every valid (c, d) tunable grid (c^2 d = P,
///                       c | d), Algorithm 9; c = 1 is 1D-CholeskyQR2
///                       on all P ranks (Algorithm 7) and is always a
///                       candidate;
///       * pgeqrf_2d   -- the ScaLAPACK-style baseline over power-of-two
///                       pr splits and block sizes {16, 32, 64}.
///   plan(key) -> candidates(key).front().
///
/// Scoring is pure arithmetic over model/costs.hpp with the profile's
/// fitted machine (gamma scaled by the measured thread efficiency at
/// key.threads), so every rank of an SPMD run computes the identical
/// plan with no communication.  Timed trial-run refinement of the top-k
/// -- plan_mode=measured -- lives in core::factorize, which owns the
/// data and the communicator the trials must run on.

#include <vector>

#include "cacqr/tune/profile.hpp"

namespace cacqr::tune {

/// What a plan is for: the problem shape, the parallel footprint, and
/// the driver options that change the executed algorithm (a plan or a
/// trial timing for 1-pass CQR must never be reused for 3-pass CQR3).
struct ProblemKey {
  i64 m = 0;
  i64 n = 0;
  int p = 1;        ///< total ranks
  int threads = 1;  ///< per-rank worker budget
  int passes = 2;   ///< FactorizeOptions::passes (CholeskyQR families)
  i64 base_case = 0;  ///< FactorizeOptions::base_case (CFR3D knob)
  /// FactorizeOptions::precision: which passes run the fp32 Gram lane.
  /// Part of the key because it changes both the executed arithmetic and
  /// the candidate scores (halved Gram beta, fp32 gamma) -- a plan scored
  /// for one precision must never be served for another.
  Precision precision = Precision::fp64;

  /// Canonical cache-key text, e.g. "m8192_n128_p8_t1_s2_bc0_fp64".
  [[nodiscard]] std::string text() const;
};

/// One executable configuration with its scores.  `algo` selects the
/// variant; the grid fields that don't apply to it stay 0.
struct Plan {
  /// v2: kernel_variant field (which micro-kernel the plan was scored
  /// for); v1 cache files are ignored by the loader.
  /// v3: precision field (which Gram-precision mode the plan was scored
  /// under); v2 cache files are ignored by the loader.
  static constexpr int kSchemaVersion = 3;

  std::string algo;     ///< "ca_cqr2" | "pgeqrf_2d"
  int c = 0, d = 0;     ///< ca_cqr2 tunable grid
  int pr = 0, pc = 0;   ///< pgeqrf_2d process grid
  i64 block = 0;        ///< pgeqrf_2d panel width
  double predicted_seconds = 0.0;  ///< modeled time under the profile
  double measured_seconds = 0.0;   ///< trial-run time (0 = never trialed)
  std::string source;   ///< "model" | "measured" | "cache" | "heuristic"
  /// Micro-kernel variant active when this plan was scored/measured
  /// ("" on heuristic plans).  A cached plan whose variant differs from
  /// the dispatcher's current pick is treated as a miss and re-planned:
  /// its gamma -- and in measured mode its trial timings -- belong to a
  /// different compute engine.
  std::string kernel_variant;
  /// Gram-precision mode the plan was scored/measured under
  /// (FactorizeOptions::precision).  Like kernel_variant, a cached plan
  /// whose precision differs from the request is a miss: its scores
  /// describe different payload widths and a different compute rate.
  Precision precision = Precision::fp64;

  /// Human-readable grid tag matching bench_cacqr's convention
  /// ("c1d8", "c2d2", "4x2b16").
  [[nodiscard]] std::string grid() const;

  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static std::optional<Plan> from_json(const support::Json& j);
};

struct PlannerOptions {
  /// How many top candidates plan_mode=measured trial-runs.
  int top_k = 3;
};

class Planner {
 public:
  explicit Planner(MachineProfile profile, PlannerOptions opts = {});

  /// All valid candidates for the key, sorted by predicted time
  /// ascending (deterministic tie-break: variant order then grid).
  /// Every returned plan's configuration is executable by
  /// core::factorize on key.p ranks.  Throws EnsureError only for
  /// nonsensical keys (m < n, p < 1).
  [[nodiscard]] std::vector<Plan> candidates(const ProblemKey& key) const;

  /// The model's pick: candidates(key).front(), source == "model".
  [[nodiscard]] Plan plan(const ProblemKey& key) const;

  [[nodiscard]] const MachineProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] const PlannerOptions& options() const noexcept {
    return opts_;
  }

 private:
  MachineProfile profile_;
  PlannerOptions opts_;
};

}  // namespace cacqr::tune
