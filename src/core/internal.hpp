#pragma once
/// \file internal.hpp
/// \brief Padding and stripping helpers shared by the factorize driver
///        TUs.
///
/// The padding contract is part of the bitwise-determinism story: the
/// standalone driver (factorize.cpp) and the batched driver (batched.cpp)
/// must produce byte-identical padded inputs for the same panel, so the
/// helpers live here instead of being duplicated per TU.

#include <algorithm>
#include <cmath>
#include <utility>

#include "cacqr/lin/matrix.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/math.hpp"

namespace cacqr::core::detail {

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
