#pragma once
/// \file batched.hpp
/// \brief Stacked 1D-CholeskyQR2 sweep over a micro-batch of tall-skinny
///        panels: one Gram Allreduce per pass for the whole batch.
///
/// The serving scheduler (serve/) groups compatible small factorize jobs
/// and runs them through this entry point so the per-message alpha of the
/// Gram Allreduce is paid once per batch instead of once per job -- the
/// same aggregation argument the paper applies to panel latency, lifted to
/// whole requests.  Each panel's local Gram contribution is written into a
/// slab at a fixed offset and a single Allreduce sums the concatenation.
///
/// Bitwise contract: every panel's Q/R are byte-identical to the same
/// panel run standalone through `factorize` on the c = 1 grid.  This
/// holds because the Allreduce schedule (recursive-halving reduce-scatter
/// + Bruck allgather, src/rt/collectives.cpp) pairs RANKS, not elements:
/// the per-element summation tree has the same shape at every offset of
/// any payload, the keeper/sender role swap only commutes IEEE additions
/// (bitwise-safe), and everything outside the Allreduce is per-panel
/// local arithmetic executed by the same thread at the same budget.  At
/// c = 1 the standalone driver's ca_cqr runs the same 1D pass as a batch
/// of one, so the two paths are literally the same code;
/// tests/serve/test_batched.cpp and tests/core/test_driver_identity.cpp
/// assert the byte-equality across budgets x overlap x precision.

#include <exception>
#include <span>
#include <vector>

#include "cacqr/lin/matrix.hpp"
#include "cacqr/rt/comm.hpp"
#include "cacqr/support/precision.hpp"

namespace cacqr::core {

/// Options shared by every panel of one batched sweep (the batching key:
/// the scheduler only groups jobs that agree on all of these).
struct BatchedOptions {
  int passes = 2;          ///< 1 = CQR, 2 = CQR2, 3 = shifted CQR3 per panel
  bool auto_shift = true;  ///< NotSpd panels retry shifted CholeskyQR3
  i64 base_case = 0;       ///< has no effect: the sweep and its shifted
                           ///< fallback run on the c = 1 grid, which
                           ///< has no CFR3D recursion to steer
  Precision precision = Precision::fp64;
};

/// Per-panel outcome of a batched sweep.
struct BatchedItem {
  lin::Matrix q;
  lin::Matrix r;
  bool ok = true;           ///< false: `error` holds the panel's failure
  bool used_shift = false;  ///< panel fell back to shifted CholeskyQR3
  std::exception_ptr error;
};

/// Factors each panel (m_i x n_i, m_i >= n_i >= 1) over the full
/// communicator exactly like the standalone driver on the c = 1 grid,
/// but with the per-pass Gram Allreduces of the whole batch fused into
/// one collective.  Panels may differ in shape; they must share `opts`.  Collective: every
/// rank passes the same panel sequence.  A panel whose Cholesky breaks
/// down (NotSpdError) is isolated: with auto_shift it reruns through the
/// shifted CholeskyQR3 path after the sweep (used_shift = true),
/// otherwise its item carries the error (ok = false) -- the other panels
/// of the batch are unaffected either way.  Non-NotSpd errors propagate
/// by throwing, as standalone.
[[nodiscard]] std::vector<BatchedItem> factorize_batched(
    std::span<const lin::ConstMatrixView> panels, const rt::Comm& world,
    const BatchedOptions& opts = {});

}  // namespace cacqr::core
