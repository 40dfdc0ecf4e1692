#include <cfloat>
#include <cmath>

#include "cacqr/core/shifted.hpp"

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/util.hpp"
#include "internal.hpp"

namespace cacqr::core {

using dist::DistMatrix;

double recommended_shift(i64 m, i64 n, double norm2_sq) {
  return 11.0 * static_cast<double>(m * n + n * (n + 1)) * DBL_EPSILON *
         norm2_sq;
}

QrFactors shifted_cqr3(lin::ConstMatrixView a) {
  const i64 n = a.cols;
  ensure_dim(a.rows >= n, "shifted_cqr3: requires m >= n");

  // Pass 1, shifted: G = A^T A + s I, R1^T = chol(G), Q1 = A R1^{-1}.
  lin::Matrix g(n, n);
  lin::gram(1.0, a, 0.0, g);
  const double fro = lin::frob_norm(a);
  const double s = recommended_shift(a.rows, n, fro * fro);
  for (i64 i = 0; i < n; ++i) g(i, i) += s;
  auto li = lin::cholinv(g);
  lin::Matrix q1 = lin::Matrix::uninit(a.rows, n);
  lin::trmm_right(lin::Uplo::Lower, lin::Trans::T, lin::Diag::NonUnit, 1.0,
                  li.l_inv, a, q1);

  // Passes 2-3: plain CholeskyQR2 on the now well-conditioned Q1, with
  // no fallback left, so only a pivot that is not positive breaks it down
  // (DESIGN.md section 9).
  QrFactors second = detail::cqr2(q1, 0.0);

  // R = R_{23} * R1 with R1 = L^T.
  lin::Matrix r1(n, n);
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i <= j; ++i) r1(i, j) = li.l(j, i);
  }
  lin::trmm(lin::Side::Left, lin::Uplo::Upper, lin::Trans::N,
            lin::Diag::NonUnit, 1.0, second.r, r1);
  return {std::move(second.q), std::move(r1)};
}

CaCqrResult ca_cqr3(const DistMatrix& a, const grid::TunableGrid& g,
                    CaCqrOptions opts) {
  // ||A||_F^2 as the norm bound: local contribution summed over the slice
  // (each slice holds one full copy of A).
  const double local = lin::frob_norm(a.local());
  std::vector<double> acc = {local * local};
  g.slice().allreduce_sum(acc);
  const double shift = recommended_shift(a.rows(), a.cols(), acc[0]);

  // Pass 1, shifted.
  CaCqrResult first =
      ca_cqr(a, g,
             {.base_case = opts.base_case, .shift = shift,
              .inverse_depth = opts.inverse_depth});
  // Passes 2-3 on Q1, breaking down only on a pivot that is not
  // positive, as in shifted_cqr3.
  CaCqrResult rest =
      detail::ca_cqr2(first.q, g,
                      {.base_case = opts.base_case, .shift = 0.0,
                       .inverse_depth = opts.inverse_depth},
                      0.0);

  CaCqrResult out;
  out.q = std::move(rest.q);
  out.r = compose_r(rest.r, first.r, g);
  return out;
}

}  // namespace cacqr::core
