#pragma once
/// \file factor.hpp
/// \brief Sequential Cholesky factorization and triangular inversion.
///
/// These are the base-case kernels of the distributed CFR3D algorithm
/// (Algorithm 3 of the paper) and of the 1D CholeskyQR variants.

#include <optional>

#include "cacqr/lin/matrix.hpp"

namespace cacqr::lin {

/// The breakdown threshold potrf applies by default (DESIGN.md section
/// 9): 2 n u max_i A(i, i) with u = DBL_EPSILON / 2, the rounding error
/// a Cholesky pivot of `a` can carry.
[[nodiscard]] double breakdown_threshold(ConstMatrixView a);

/// In-place lower Cholesky factorization A = L L^T (blocked).
/// On return the lower triangle of `a` holds L; the strict upper triangle
/// is zeroed.  Throws NotSpdError on breakdown: a pivot that is not
/// finite or lies at or below `tol`, which defaults to
/// breakdown_threshold(a); `tol = 0` counts only a pivot that is not
/// positive.
void potrf(MatrixView a, std::optional<double> tol = std::nullopt);

/// In-place inversion of a lower-triangular matrix (blocked recursive).
/// The strict upper triangle is ignored and left untouched.
void trtri_lower(MatrixView l);

/// Result of cholinv(): the Cholesky factor and its inverse.
struct CholInvResult {
  Matrix l;      ///< lower-triangular factor, A = L L^T
  Matrix l_inv;  ///< Y = L^{-1}
};

/// [L, Y] <- CholInv(A): Cholesky factor plus its explicit inverse, the
/// sequential routine invoked redundantly by every processor at the CFR3D
/// base case (paper Algorithm 2 base case / Algorithm 3 line 3).
/// `a` is not modified; `tol` is potrf's breakdown threshold.
[[nodiscard]] CholInvResult cholinv(ConstMatrixView a,
                                    std::optional<double> tol = std::nullopt);

}  // namespace cacqr::lin
