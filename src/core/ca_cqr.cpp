#include "cacqr/core/ca_cqr.hpp"

#include <algorithm>

#include "cacqr/chol/cfr3d.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/blas_f.hpp"
#include "internal.hpp"

namespace cacqr::core {

using dist::DistMatrix;

namespace {

std::span<double> span_of(lin::Matrix& m) {
  return {m.data(), static_cast<std::size_t>(m.size())};
}

void check_tunable_layout(const DistMatrix& a, const grid::TunableGrid& g) {
  ensure_dim(a.layout().row_procs == g.d() && a.layout().col_procs == g.c() &&
                 a.layout().my_row == g.coords().y &&
                 a.layout().my_col == g.coords().x,
             "ca_cqr: matrix must be distributed over the tunable grid "
             "(rows over d, columns over c)");
  ensure_dim(a.rows() >= a.cols(), "ca_cqr: requires m >= n");
}

/// The fp32 lane of ca_gram: same five lines, same peers, half the words
/// on every wire (fp32 pairs riding whole 8-byte words via
/// lin::MatrixF::wire()).  The fp64 panel is narrowed once per rank; the
/// returned Z is the widened image of the fp32 sum, so everything
/// downstream runs fp64 on fp32-rounded data -- the CholeskyQR2 second
/// pass absorbs that rounding.
DistMatrix ca_gram_f32(const DistMatrix& a, const grid::TunableGrid& g) {
  const int c = g.c();
  const auto [x, y, z] = g.coords();
  const i64 n = a.cols();

  // Line 1: Bcast(narrow(A) -> W, root x == z, Pi[:, y, z]).  The root
  // narrows its panel (threaded, elementwise); everyone else receives
  // into uninitialized storage the Bcast fully overwrites.
  lin::MatrixF w = lin::MatrixF::uninit(a.local().rows(), a.local().cols());
  if (x == z) lin::narrow(a.local(), w);
  g.row().bcast(w.wire(), z);

  // Line 2: X = W^T * narrow(A_local) through the fp32 kernel lane; with
  // c == 1 W already is the narrowed local panel (the bcast above was the
  // size-1 no-op), so the symmetric rank-k form needs no second narrow.
  lin::MatrixF xbuf = lin::MatrixF::uninit(n / c, n / c);
  if (c == 1) {
    lin::gram_f32(1.0f, w, 0.0f, xbuf);
  } else {
    lin::MatrixF al = lin::MatrixF::uninit(a.local().rows(),
                                           a.local().cols());
    lin::narrow(a.local(), al);
    lin::gemm_f32(lin::Trans::T, lin::Trans::N, 1.0f, w, al, 0.0f, xbuf);
  }

  // Line 3: Reduce within the contiguous y-group (half-width payload).
  g.ygroup_contig().reduce_sum_f32(xbuf.wire(),
                                   z % g.ygroup_contig().size());

  // Line 4: Allreduce across the strided y-group, overlapped with the
  // line-5 staging allocation exactly like the fp64 path.
  rt::Request gram_sum =
      g.ygroup_strided().start_allreduce_sum_f32(xbuf.wire());
  const auto& sub = g.subcube();
  DistMatrix zmat = DistMatrix::uninit(n, n, sub.g(), sub.g(),
                                       sub.coords().y, sub.coords().x);
  gram_sum.wait();

  // Line 5: Bcast along depth from root z == y mod c.
  g.depth().bcast(xbuf.wire(), y % c);

  lin::widen(xbuf, zmat.local());
  return zmat;
}

}  // namespace

DistMatrix ca_gram(const DistMatrix& a, const grid::TunableGrid& g,
                   Precision gram_precision) {
  check_tunable_layout(a, g);
  if (gram_precision != Precision::fp64) return ca_gram_f32(a, g);
  const int c = g.c();
  const auto [x, y, z] = g.coords();
  const i64 n = a.cols();

  // Line 1: Bcast(A -> W, root x == z, Pi[:, y, z]).  Only the root
  // stages its panel (threaded materialize); everyone else receives into
  // uninitialized storage the Bcast fully overwrites.  With c == 1 the
  // row communicator is this rank alone and W is A_local itself, so
  // nothing is staged.
  lin::Matrix w;
  if (c > 1) {
    w = x == z ? materialize(a.local().view())
               : lin::Matrix::uninit(a.local().rows(), a.local().cols());
    g.row().bcast(span_of(w), z);
  }

  // Line 2: X = W^T * A_local, the (l = z mod c, j = x mod c) block of the
  // Gram matrix partially summed over this rank's row class.  With c == 1
  // W coincides with A_local and the product is a symmetric rank-k update
  // (Algorithm 6 line 1), at half the flops.  beta == 0 either way, so
  // the block is uninitialized staging too.
  lin::Matrix xbuf = lin::Matrix::uninit(n / c, n / c);
  if (c == 1) {
    lin::gram(1.0, a.local(), 0.0, xbuf);
  } else {
    lin::gemm(lin::Trans::T, lin::Trans::N, 1.0, w, a.local(), 0.0, xbuf);
  }

  // Line 3: Reduce within the contiguous y-group onto the member with
  // y mod c == z (group-comm rank z).
  g.ygroup_contig().reduce_sum(span_of(xbuf), z % g.ygroup_contig().size());

  // Line 4: Allreduce across the strided y-group completes the sum over
  // all d row classes (meaningful on the group roots; the next broadcast
  // overwrites everyone else).  Started before allocating line 5's
  // staging target (uninitialized -- the copy below overwrites it) so
  // the schedule's eager sends drain during the allocation; the real
  // Gram-Allreduce overlap window is the 1D pass's staging copy.
  rt::Request gram_sum = g.ygroup_strided().start_allreduce_sum(span_of(xbuf));
  const auto& sub = g.subcube();
  DistMatrix zmat = DistMatrix::uninit(n, n, sub.g(), sub.g(),
                                       sub.coords().y, sub.coords().x);
  gram_sum.wait();

  // Line 5: Bcast along depth from root z == y mod c, after which every
  // rank holds the Gram block for (row class y mod c, column class x):
  // Z distributed over the subcube slice, replicated over depth.
  g.depth().bcast(span_of(xbuf), y % c);

  lin::copy(xbuf, zmat.local());
  return zmat;
}

CaCqrResult detail::ca_cqr(const DistMatrix& a, const grid::TunableGrid& g,
                           const CaCqrOptions& opts,
                           std::optional<double> tol) {
  check_tunable_layout(a, g);
  const int c = g.c();
  const int d = g.d();
  const auto [x, y, z] = g.coords();
  (void)z;
  const i64 m = a.rows();
  const i64 n = a.cols();

  // c == 1 is 1D-CholeskyQR (Algorithm 6): the one 1D pass, as a batch of
  // one over the d ranks of the column communicator (rank == y, the row
  // class).  Its redundant CholInv has no recursion for base_case or
  // inverse_depth to steer.  R comes back replicated, i.e. distributed
  // over the 1 x 1 subcube slice.
  if (c == 1) {
    std::vector<detail::PassOut> pass = detail::batched_pass_1d(
        {&a}, g.col(), opts.precision != Precision::fp64, opts.shift, tol);
    if (!pass[0].ok) std::rethrow_exception(pass[0].error);
    return {std::move(pass[0].q),
            DistMatrix::from_global(pass[0].r, 1, 1, 0, 0)};
  }

  // Lines 1-5: Gram matrix on the subcube slice (fp32 lane when this
  // pass's options ask for it; Cholesky and the Q update below are
  // always fp64).
  DistMatrix zmat = ca_gram(a, g, opts.precision);

  // Optional diagonal shift (shifted CholeskyQR): global entry (i, i)
  // lives on the subcube rank with row class == column class.
  if (opts.shift != 0.0) {
    const auto& lay = zmat.layout();
    if (lay.my_row == lay.my_col) {
      for (i64 li = 0; li < lay.local_rows(); ++li) {
        zmat.local()(li, li) += opts.shift;
      }
    }
  }

  // Lines 6-7: CFR3D on the subcube gives R^T and R^{-T} (block diagonal
  // when inverse_depth > 0).
  auto [rt_factor, rinv_t] = chol::cfr3d(
      zmat, g.subcube(),
      {.base_case = opts.base_case, .inverse_depth = opts.inverse_depth},
      tol);

  // Materialize R and R^{-1} via the Transpose collective; the pair form
  // pipelines the two exchanges when overlap is on.
  auto [r, rinv] = dist::transpose3d_pair(rt_factor, rinv_t, g.subcube());

  // Line 8: Q = A R^{-1}.  Present this subcube's (m c/d) x n row-panel
  // of A in subcube coordinates; with a full inverse this is one MM3D,
  // with a partial inverse the block back-substitution sweep (the
  // InverseDepth strategy) -- either way no communication crosses
  // subcubes.
  DistMatrix a_panel = a.reinterpret_layout(m * c / d, n, c, c, y % c, x);
  // Match the depth CFR3D actually used after clamping.
  int max_depth = 0;
  const i64 n0 = chol::effective_base_case(n, c, opts.base_case);
  for (i64 lv = n; lv > n0; lv /= 2) ++max_depth;
  const i64 nblocks = i64(1) << std::min(opts.inverse_depth, max_depth);
  DistMatrix q_panel =
      dist::block_backsolve(a_panel, r, rinv, nblocks, g.subcube());
  return {q_panel.reinterpret_layout(m, n, d, c, y, x), std::move(r)};
}

CaCqrResult ca_cqr(const DistMatrix& a, const grid::TunableGrid& g,
                   CaCqrOptions opts) {
  return detail::ca_cqr(a, g, opts, std::nullopt);
}

DistMatrix compose_r(const DistMatrix& r2, const DistMatrix& r1,
                     const grid::TunableGrid& g) {
  if (g.c() == 1) {
    DistMatrix r = r1;
    lin::trmm(lin::Side::Left, lin::Uplo::Upper, lin::Trans::N,
              lin::Diag::NonUnit, 1.0, r2.local(), r.local());
    return r;
  }
  return dist::mm3d(r2, r1, g.subcube());
}

CaCqrResult detail::ca_cqr2(const DistMatrix& a, const grid::TunableGrid& g,
                            const CaCqrOptions& opts,
                            std::optional<double> tol) {
  // Lines 1-2: two CA-CQR passes (the shift, if any, applies to the first
  // pass only; the second factors an already well-conditioned Q1).  An
  // fp32 Gram follows the same pattern: `mixed` confines it to the first
  // pass -- the fp64 second pass is the correction sweep that restores
  // fp64-level orthogonality -- while `fp32` keeps it for both.
  CaCqrResult first = ca_cqr(a, g, opts, tol);
  CaCqrResult second =
      ca_cqr(first.q, g,
             {.base_case = opts.base_case, .shift = 0.0,
              .inverse_depth = opts.inverse_depth,
              .precision = opts.precision == Precision::fp32
                               ? Precision::fp32
                               : Precision::fp64},
             tol);
  // Line 4: R = R2 * R1.
  CaCqrResult out;
  out.q = std::move(second.q);
  out.r = compose_r(second.r, first.r, g);
  return out;
}

CaCqrResult ca_cqr2(const DistMatrix& a, const grid::TunableGrid& g,
                    CaCqrOptions opts) {
  return detail::ca_cqr2(a, g, opts, std::nullopt);
}

}  // namespace cacqr::core
