#pragma once
/// \file cfr3d.hpp
/// \brief CFR3D: recursive 3D Cholesky factorization with triangular
///        inverse (paper Algorithm 3).
///
/// Given SPD A distributed cyclically over every z-slice of a cubic grid,
/// computes L (A = L L^T) and Y = L^{-1} in the same distribution.  The
/// recursion halves the matrix: factor A11, form L21 = A21 Y11^T via
/// Transpose + MM3D, update A22 - L21 L21^T, recurse, and combine the
/// inverse as Y21 = -Y22 L21 Y11.  Embedding the inverse into the same
/// recursion (rather than a second recursive pass) is what keeps the
/// synchronization cost at O((n/n0) log P) instead of an extra log factor
/// (paper Section II-D).
///
/// At the base case (dimension n0) the submatrix is allgathered over the
/// slice and every rank runs the sequential CholInv redundantly; the
/// paper's base-case cost (2/3) log2(P) alpha + n0^2 beta + O(n0^3) gamma
/// follows from the slice allgather over P^(2/3) ranks.
///
/// Choosing n0 trades synchronization against communication: the paper
/// picks n0 = n / P^(2/3) to minimize bandwidth, which is the default
/// here (clamped to keep every recursion level divisible by the grid).

#include <optional>

#include "cacqr/dist/dist_matrix.hpp"

namespace cacqr::chol {

struct Cfr3dOptions {
  /// Base-case dimension n0; 0 selects the paper's bandwidth-minimizing
  /// default max(g, n / g^2).  The effective value is clamped so that
  /// every recursion level stays divisible by the grid dimension.
  i64 base_case = 0;
  /// The paper's InverseDepth knob (Section III-A): the top
  /// `inverse_depth` recursion levels skip the off-diagonal inverse
  /// blocks (Algorithm 3 lines 12-14), leaving Y block-diagonal with
  /// 2^inverse_depth fully inverted diagonal blocks.  Q = A R^{-1} is
  /// then computed by block back-substitution (see core/ca_cqr.hpp),
  /// saving up to ~2x of the multiply flops at the cost of up to ~2x
  /// more synchronization.  0 (the paper's default) computes the full
  /// inverse.  Clamped to the actual recursion depth.
  int inverse_depth = 0;
};

struct Cfr3dResult {
  dist::DistMatrix l;      ///< lower-triangular factor, A = L L^T
  dist::DistMatrix l_inv;  ///< Y = L^{-1}
};

/// Normalized base-case size actually used for (n, g, requested): halves n
/// while the result stays above the target and divisible by g.  Exposed
/// for the cost model, which must mirror the implementation's recursion
/// depth exactly.
[[nodiscard]] i64 effective_base_case(i64 n, int g, i64 requested);

/// [L, Y] <- CFR3D(A): see file comment.  Throws NotSpdError if A is not
/// numerically positive definite (all ranks throw consistently, since the
/// base-case factorization is computed redundantly from identical data).
/// `tol` is the breakdown threshold of every base-case lin::potrf; by
/// default each base case takes lin::breakdown_threshold of the block it
/// factors, a leading block or a Schur complement (DESIGN.md section 9).
[[nodiscard]] Cfr3dResult cfr3d(const dist::DistMatrix& a,
                                const grid::CubeGrid& g,
                                Cfr3dOptions opts = {},
                                std::optional<double> tol = std::nullopt);

}  // namespace cacqr::chol
