#pragma once
/// \file internal.hpp
/// \brief The one 1D CholeskyQR pass, the pass drivers with an explicit
///        breakdown threshold, and the padding and stripping helpers
///        shared by the core TUs.
///
/// The padding contract is part of the bitwise-determinism story: the
/// standalone driver (factorize.cpp) and the batched driver (batched.cpp)
/// must produce byte-identical padded inputs for the same panel, so the
/// helpers live here instead of being duplicated per TU.  For the same
/// reason there is one 1D pass: ca_cqr at c == 1 and the batched sweep
/// both run batched_pass_1d.

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/cqr.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/lin/matrix.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/math.hpp"

namespace cacqr::core::detail {

/// Per-panel outcome of one batched_pass_1d: Q distributed like the
/// input, R replicated, or the panel's NotSpdError.
struct PassOut {
  dist::DistMatrix q;
  lin::Matrix r;
  bool ok = true;
  std::exception_ptr error;
};

/// One 1D-CholeskyQR pass (paper Algorithm 6) over `panels`: per panel a
/// local Gram, ONE Allreduce over the concatenated Gram slab for the
/// whole batch, a redundant CholInv and a local triangular multiply.
/// Every panel must be row-distributed over `comm` (col_procs == 1,
/// row_procs == comm.size(), my_row == comm.rank()); Q keeps the
/// panel's layout.  `f32_gram` runs the Gram and its Allreduce in fp32
/// (half-width payload), widened before the CholInv.  `shift` is added
/// to every Gram diagonal before the CholInv (shifted CholeskyQR);
/// `tol` is the CholInv's breakdown threshold (lin::potrf).
///
/// Per-element sums are unchanged by the concatenation (the schedule
/// pairs ranks, never elements -- see batched.hpp), and everything else
/// is per-panel local work by the same thread at the same budget, so each
/// panel's output is bitwise identical to a batch of one.  NotSpdError is
/// caught per panel (it is replicated by the Allreduce, so every rank
/// records the same failure set); other errors propagate.  Collective;
/// an empty batch runs no collective.  Per-rank charge: Allreduce(sum of
/// n_i^2, P) plus, per panel, (m_i/P) n_i (n_i+1) + n_i^3/3 + (m_i/P)
/// n_i (n_i+1) gamma.
[[nodiscard]] std::vector<PassOut> batched_pass_1d(
    const std::vector<const dist::DistMatrix*>& panels, const rt::Comm& comm,
    bool f32_gram, double shift = 0.0,
    std::optional<double> tol = std::nullopt);

/// ca_cqr, ca_cqr2 and cqr2 with `tol` handed to every Cholesky as its
/// breakdown threshold (lin::potrf).  Shifted CholeskyQR3 runs the
/// passes after its shifted one with tol = 0: they have no fallback
/// left, so only a pivot that is not positive breaks them down
/// (DESIGN.md section 9).
[[nodiscard]] CaCqrResult ca_cqr(const dist::DistMatrix& a,
                                 const grid::TunableGrid& g,
                                 const CaCqrOptions& opts,
                                 std::optional<double> tol);
[[nodiscard]] CaCqrResult ca_cqr2(const dist::DistMatrix& a,
                                  const grid::TunableGrid& g,
                                  const CaCqrOptions& opts,
                                  std::optional<double> tol);
[[nodiscard]] QrFactors cqr2(lin::ConstMatrixView a,
                             std::optional<double> tol);

/// Padded dimensions and the padded matrix itself (see factorize.hpp).
/// `a` views `storage` when padding was needed, else the caller's panel
/// (no copy), which must then outlive the Padded.  Moving a Padded keeps
/// `a` valid: the storage's heap block moves with it.
struct Padded {
  lin::Matrix storage;  ///< the padded copy; empty when none was needed
  lin::ConstMatrixView a;
  i64 m = 0;  ///< original rows
  i64 n = 0;  ///< original cols
};

/// Pads columns to a multiple of `col_mult` (delta-scaled identity) and
/// rows to a multiple of `row_mult` (zero rows), keeping m_pad >= n_pad.
inline Padded pad_to_multiples(lin::ConstMatrixView a, i64 row_mult,
                               i64 col_mult) {
  const i64 m = a.rows;
  const i64 n = a.cols;
  const i64 n_pad = round_up(n, col_mult);
  const i64 m_pad = round_up(std::max(m + (n_pad - n), n_pad), row_mult);
  if (m_pad == m && n_pad == n) return {lin::Matrix(), a, m, n};
  const double fro = lin::frob_norm(a);
  const double delta =
      fro > 0.0 ? fro / std::sqrt(static_cast<double>(n)) : 1.0;
  lin::Matrix padded(m_pad, n_pad);
  lin::copy(a, padded.sub(0, 0, m, n));
  for (i64 j = n; j < n_pad; ++j) {
    padded(m + (j - n), j) = delta;
  }
  const lin::ConstMatrixView view = padded.view();
  return {std::move(padded), view, m, n};
}

inline Padded pad_for_grid(lin::ConstMatrixView a, int c, int d) {
  return pad_to_multiples(a, d, c);
}

/// The leading rows x cols block of a gathered padded factor: `full`
/// itself, moved, when nothing was padded, else a copy of the block.
/// Every driver path strips through here, so an unpadded factor is
/// never copied.
inline lin::Matrix strip(lin::Matrix full, i64 rows, i64 cols) {
  if (full.rows() == rows && full.cols() == cols) return full;
  return lin::materialize(full.sub(0, 0, rows, cols));
}

}  // namespace cacqr::core::detail
