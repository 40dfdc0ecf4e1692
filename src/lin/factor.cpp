#include <algorithm>
#include <cfloat>
#include <cmath>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/flops.hpp"
#include "cacqr/lin/parallel.hpp"

namespace cacqr::lin {

namespace {

/// Unblocked right-looking Cholesky on a small diagonal block.
/// `pivot_base` offsets the failure index reported for blocked callers;
/// a pivot at or below `tol` (potrf's breakdown threshold) throws.
///
/// Column-oriented: after column j is scaled, every trailing column takes a
/// contiguous axpy update, so the O(n^3/3) work vectorizes instead of
/// running strided row dot products.
void potf2(MatrixView a, i64 pivot_base, double tol) {
  const i64 n = a.rows;
  for (i64 j = 0; j < n; ++j) {
    double* __restrict cj = a.data + j * a.ld;
    const double d = cj[j];
    if (!(d > tol) || !std::isfinite(d)) {
      throw NotSpdError(
          cacqr::detail::concat("potrf: pivot ", pivot_base + j, " (", d,
                                ") is at or below the breakdown threshold ",
                                tol, "; matrix is not numerically SPD"),
          static_cast<std::size_t>(pivot_base + j));
    }
    const double ljj = std::sqrt(d);
    const double inv_ljj = 1.0 / ljj;
    cj[j] = ljj;
    for (i64 i = j + 1; i < n; ++i) cj[i] *= inv_ljj;
    // Trailing update: A(k:n, k) -= L(k, j) * L(k:n, j) for k > j.
    for (i64 k = j + 1; k < n; ++k) {
      double* __restrict ck = a.data + k * a.ld;
      const double lkj = cj[k];
      if (lkj == 0.0) continue;
      for (i64 i = k; i < n; ++i) ck[i] -= lkj * cj[i];
    }
  }
  flops::add(n * n * n / 3 + 2 * n * n);  // ~n^3/3 multiply-add pairs
}

/// Unblocked lower-triangular inversion, in place.
///
/// Columns are processed left-to-right so that when computing Y(i,j) the
/// entries read as L(i,k) (k > j, columns not yet processed) still hold the
/// original factor while the entries read as Y(k,j) (current column, rows
/// above i) have already been inverted:
///   Y(j,j) = 1 / L(j,j)
///   Y(i,j) = -( L(i,j) Y(j,j) + sum_{j<k<i} L(i,k) Y(k,j) ) / L(i,i).
void trti2_lower(MatrixView l) {
  const i64 n = l.rows;
  for (i64 j = 0; j < n; ++j) {
    const double yjj = 1.0 / l(j, j);
    l(j, j) = yjj;
    for (i64 i = j + 1; i < n; ++i) {
      double acc = l(i, j) * yjj;
      for (i64 k = j + 1; k < i; ++k) acc += l(i, k) * l(k, j);
      l(i, j) = -acc / l(i, i);
    }
  }
  flops::add(n * n * n / 3 + 2 * n * n);
}

constexpr i64 kFactorBlock = 48;

}  // namespace

double breakdown_threshold(ConstMatrixView a) {
  // A pivot at or below 2 n u max_i A(i, i) lies within Cholesky's
  // rounding error of zero (DESIGN.md section 9).
  double max_diag = 0.0;
  for (i64 i = 0; i < a.rows; ++i) max_diag = std::max(max_diag, a(i, i));
  return 2.0 * static_cast<double>(a.rows) * (DBL_EPSILON / 2.0) * max_diag;
}

void potrf(MatrixView a, std::optional<double> tol) {
  ensure_dim(a.rows == a.cols, "potrf: matrix must be square");
  const i64 n = a.rows;
  // Computed once from the original diagonal, for every block.
  const double t = tol ? *tol : breakdown_threshold(a);

  for (i64 k = 0; k < n; k += kFactorBlock) {
    const i64 nb = std::min(kFactorBlock, n - k);
    auto akk = a.sub(k, k, nb, nb);
    potf2(akk, k, t);
    const i64 rest = n - k - nb;
    if (rest > 0) {
      auto a21 = a.sub(k + nb, k, rest, nb);
      // A21 <- A21 * L11^{-T}
      trsm(Side::Right, Uplo::Lower, Trans::T, Diag::NonUnit, 1.0, akk, a21);
      // A22 <- A22 - A21 A21^T: the O(n^3) trailing update, threaded
      // through the packed kernel inside syrk_nt (full update; syrk
      // mirrors for simplicity, the mirrored half is overwritten below
      // anyway).
      auto a22 = a.sub(k + nb, k + nb, rest, rest);
      syrk_nt(-1.0, a21, 1.0, a22, Uplo::Lower);
    }
  }
  // Zero the strict upper triangle so the result is exactly L (disjoint
  // columns, so the split is race-free and deterministic).
  parallel::parallel_for(n, 64, [&](i64 j0, i64 j1) {
    for (i64 j = std::max<i64>(j0, 1); j < j1; ++j) {
      for (i64 i = 0; i < j; ++i) a(i, j) = 0.0;
    }
  });
}

void trtri_lower(MatrixView l) {
  ensure_dim(l.rows == l.cols, "trtri_lower: matrix must be square");
  const i64 n = l.rows;
  if (n <= kFactorBlock) {
    trti2_lower(l);
    return;
  }
  // Recursive partition: inv([L11 0; L21 L22]) = [Y11 0; -Y22 L21 Y11, Y22].
  const i64 h = n / 2;
  auto l11 = l.sub(0, 0, h, h);
  auto l21 = l.sub(h, 0, n - h, h);
  auto l22 = l.sub(h, h, n - h, n - h);
  trtri_lower(l11);
  trtri_lower(l22);
  // L21 <- -Y22 * L21 * Y11, computed as two triangular multiplies.
  trmm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, -1.0, l22, l21);
  trmm(Side::Right, Uplo::Lower, Trans::N, Diag::NonUnit, 1.0, l11, l21);
}

CholInvResult cholinv(ConstMatrixView a, std::optional<double> tol) {
  ensure_dim(a.rows == a.cols, "cholinv: matrix must be square");
  CholInvResult out{materialize(a), Matrix()};
  potrf(out.l, tol);
  out.l_inv = out.l;  // copy, then invert in place
  trtri_lower(out.l_inv);
  return out;
}

}  // namespace cacqr::lin
