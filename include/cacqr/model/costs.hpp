#pragma once
/// \file costs.hpp
/// \brief Analytic alpha-beta-gamma cost functions for every algorithm in
///        the library, composed per-line from the paper's Tables II-VI.
///
/// Each function mirrors the corresponding implementation operation by
/// operation -- same collectives, same operand sizes, same kernel flop
/// conventions -- so that instrumented small-scale runs validate the
/// model (bench_model_validation), which is then evaluated at paper scale
/// (up to 131072 ranks) to regenerate the evaluation figures.
///
/// Conventions: alpha counts messages on a rank's critical path (for
/// collectives, the busiest member -- e.g. the broadcast root); beta
/// counts 8-byte words sent by that rank; gamma counts flops with the
/// kernel conventions of cacqr::lin (gram = mn(n+1), gemm = 2mnk, ...).

#include "cacqr/model/machine.hpp"

namespace cacqr::model {

/// One rank's critical-path cost tally.
struct Cost {
  double alpha = 0.0;  ///< messages
  double beta = 0.0;   ///< words
  double gamma = 0.0;  ///< flops
  double mem = 0.0;    ///< peak extra memory, words (max over phases)

  Cost& operator+=(const Cost& o) noexcept {
    alpha += o.alpha;
    beta += o.beta;
    gamma += o.gamma;
    mem = mem > o.mem ? mem : o.mem;  // phases reuse memory: take the max
    return *this;
  }
  friend Cost operator+(Cost a, const Cost& b) noexcept { return a += b; }
  [[nodiscard]] Cost times(double f) const noexcept {
    return {alpha * f, beta * f, gamma * f, mem};
  }
  /// Modeled execution time on the given machine.
  [[nodiscard]] double time(const Machine& m) const noexcept {
    return alpha * m.alpha_s + beta * m.beta_s + gamma * m.gamma_s;
  }
};

// -------------------------------------------------- collective primitives
// These mirror src/rt/collectives.cpp exactly (butterfly algorithms).

[[nodiscard]] Cost cost_bcast(double words, double p);
[[nodiscard]] Cost cost_allreduce(double words, double p);
[[nodiscard]] Cost cost_reduce(double words, double p);  // == allreduce
[[nodiscard]] Cost cost_allgather(double total_words, double p);
[[nodiscard]] Cost cost_transpose(double words, double p);

// ------------------------------------------------------- kernel gammas
// Mirror the flop accounting in cacqr::lin.

[[nodiscard]] double flops_gemm(double m, double k, double n);
[[nodiscard]] double flops_gram(double m, double n);
[[nodiscard]] double flops_trmm(double rows, double n);
[[nodiscard]] double flops_cholinv(double n);
[[nodiscard]] double flops_geqrf(double m, double n);

// ----------------------------------------------------------- algorithms

/// MM3D (Algorithm 1) of (m x k) * (k x n) on a g^3 cube.
[[nodiscard]] Cost cost_mm3d(double m, double k, double n, double g);

/// CFR3D (Algorithm 3) of an n x n SPD matrix on a g^3 cube with base
/// case n0 (0 = the implementation's default, max(g, n/g^2)) and the
/// InverseDepth knob (top levels skipping the Y21 multiplies, with L21
/// recovered by block back-substitution).
[[nodiscard]] Cost cost_cfr3d(double n, double g, double n0 = 0.0,
                              int inverse_depth = 0);

/// Lines 1-5 of one CA-CQR pass (Algorithm 8): the Gram assembly -- the
/// panel broadcast, the local Gram/gemm, and the reduce / allreduce /
/// broadcast of the n^2/c^2 block.  Exposed separately because this is
/// exactly the phase the mixed-precision driver can run in fp32: the
/// planner re-scores it with half the beta words and the fp32 gamma rate
/// (the alpha term, and everything outside this stage, is unchanged).
/// With c == 1 this is 1D-CQR's local Gram + Allreduce(n^2, d).
[[nodiscard]] Cost cost_gram_stage(double m, double n, double c, double d);

/// One CA-CQR pass (Algorithm 8) of m x n on a c x d x c grid.
[[nodiscard]] Cost cost_ca_cqr(double m, double n, double c, double d,
                               double n0 = 0.0, int inverse_depth = 0);

/// CA-CQR2 (Algorithm 9).  With c == 1 this is exactly 1D-CQR2's cost;
/// with c == d == P^(1/3) the 3D-CQR2 cost.
[[nodiscard]] Cost cost_ca_cqr2(double m, double n, double c, double d,
                                double n0 = 0.0, int inverse_depth = 0);

/// The block back-substitution solve X R = B (dist::block_backsolve) of
/// an m x n right-hand side with 2^depth inverted diagonal blocks.
[[nodiscard]] Cost cost_block_backsolve(double m, double n, double nblocks,
                                        double g);

/// ScaLAPACK-style PGEQRF on a pr x pc grid with block size b, including
/// explicit Q formation (what the strong/weak scaling benches model).
[[nodiscard]] Cost cost_pgeqrf_2d(double m, double n, double pr, double pc,
                                  double b, bool form_q = true);

/// TSQR with explicit Q on p ranks (binary tree).
[[nodiscard]] Cost cost_tsqr(double m, double n, double p);

}  // namespace cacqr::model
