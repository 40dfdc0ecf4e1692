#include "cacqr/core/cqr.hpp"

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/factor.hpp"
#include "internal.hpp"

namespace cacqr::core {

namespace {

QrFactors cqr_pass(lin::ConstMatrixView a, std::optional<double> tol) {
  const i64 n = a.cols;
  ensure_dim(a.rows >= n, "cqr: requires m >= n");

  // Line 1: W = Syrk(A) = A^T A.
  lin::Matrix w(n, n);
  lin::gram(1.0, a, 0.0, w);

  // Line 2: R^T = chol(W) and R^{-T} = L^{-1} in one embedded recursion.
  auto li = lin::cholinv(w, tol);  // li.l == R^T, li.l_inv == R^{-T}

  // Line 3: Q = A R^{-1} = A (L^{-1})^T, a triangular multiply (m n^2)
  // that writes Q once, straight from A.
  QrFactors out{lin::Matrix::uninit(a.rows, n), lin::Matrix(n, n)};
  lin::trmm_right(lin::Uplo::Lower, lin::Trans::T, lin::Diag::NonUnit, 1.0,
                  li.l_inv, a, out.q);

  // R = L^T.
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i <= j; ++i) out.r(i, j) = li.l(j, i);
  }
  return out;
}

}  // namespace

QrFactors cqr(lin::ConstMatrixView a) { return cqr_pass(a, std::nullopt); }

QrFactors detail::cqr2(lin::ConstMatrixView a, std::optional<double> tol) {
  // Line 1-2: two CholeskyQR passes.
  QrFactors first = cqr_pass(a, tol);
  QrFactors second = cqr_pass(first.q, tol);
  // Line 3: R = R2 * R1 (triangular-triangular multiply, n^3/3).
  lin::trmm(lin::Side::Left, lin::Uplo::Upper, lin::Trans::N,
            lin::Diag::NonUnit, 1.0, second.r, first.r);
  return {std::move(second.q), std::move(first.r)};
}

QrFactors cqr2(lin::ConstMatrixView a) {
  return detail::cqr2(a, std::nullopt);
}

}  // namespace cacqr::core
