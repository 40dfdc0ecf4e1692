#include "cacqr/core/batched.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "cacqr/core/shifted.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/grid/grid.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/blas_f.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/matrix_f.hpp"
#include "cacqr/obs/trace.hpp"
#include "internal.hpp"

namespace cacqr::core {

using dist::DistMatrix;

std::vector<detail::PassOut> detail::batched_pass_1d(
    const std::vector<const DistMatrix*>& panels, const rt::Comm& comm,
    bool f32_gram, double shift, std::optional<double> tol) {
  const std::size_t k = panels.size();
  std::vector<PassOut> out(k);
  if (k == 0) return out;  // consistent on every rank: no collective to run

  obs::SpanScope pass_span("core", "batched_pass");
  pass_span.arg("batch", static_cast<double>(k));

  // Slab offsets: panel i's Gram occupies [off[i], off[i + 1]) doubles
  // (fp64 lane: n_i^2 elements; fp32 lane: its wire word count).
  std::vector<std::size_t> off(k + 1, 0);
  for (std::size_t i = 0; i < k; ++i) {
    const i64 n = panels[i]->cols();
    // fp32 wire width: two floats per 8-byte word, odd tail padded
    // (MatrixF::wire's layout).
    off[i + 1] = off[i] + static_cast<std::size_t>(
                              f32_gram ? (n * n + 1) / 2 : n * n);
  }

  // Line 1 per panel: local Gram contribution into the slab (fp64 writes
  // the n x n block in place; the fp32 lane narrows the panel, forms the
  // Gram in a MatrixF through the fp32 kernel lane and copies its wire
  // words, including the zeroed odd-tail pad lane).  beta == 0 overwrites
  // every element, so the slab is uninitialized staging.
  lin::Matrix slab = lin::Matrix::uninit(static_cast<i64>(off[k]), 1);
  std::vector<lin::MatrixF> zf(f32_gram ? k : 0);
  for (std::size_t i = 0; i < k; ++i) {
    const DistMatrix& a = *panels[i];
    const i64 n = a.cols();
    if (f32_gram) {
      lin::MatrixF af = lin::MatrixF::uninit(a.local().rows(), n);
      lin::narrow(a.local(), af);
      zf[i] = lin::MatrixF::uninit(n, n);
      lin::gram_f32(1.0f, af, 0.0f, zf[i]);
      const std::span<double> w = zf[i].wire();
      std::copy(w.begin(), w.end(), slab.data() + off[i]);
    } else {
      lin::gram(1.0, a.local(), 0.0,
                lin::MatrixView{slab.data() + off[i], n, n, n});
    }
  }

  // Line 2: ONE Allreduce for the whole batch -- 2 ceil(lg P) alpha total
  // instead of per panel.  With overlap on, the Q staging copy of every
  // panel (the copy line 4 multiplies in place) is made while the sum
  // flies, the copy chunks polling progress; overlap off completes it
  // first, the blocking order.
  rt::Request gram_sum = f32_gram
      ? comm.start_allreduce_sum_f32(
            {slab.data(), static_cast<std::size_t>(slab.size())})
      : comm.start_allreduce_sum(
            {slab.data(), static_cast<std::size_t>(slab.size())});
  if (rt::overlap_enabled()) {
    rt::ProgressScope scope(comm);
    for (std::size_t i = 0; i < k; ++i) {
      const dist::Layout& l = panels[i]->layout();
      out[i].q = DistMatrix::uninit(l.rows, l.cols, l.row_procs,
                                    l.col_procs, l.my_row, l.my_col);
      out[i].r = lin::Matrix(l.cols, l.cols);
      lin::copy(panels[i]->local(), out[i].q.local());
    }
  } else {
    gram_sum.wait();
    for (std::size_t i = 0; i < k; ++i) {
      out[i].q = *panels[i];
      out[i].r = lin::Matrix(panels[i]->cols(), panels[i]->cols());
    }
  }
  gram_sum.wait();

  // Lines 3-4 per panel: redundant CholInv (R^T = chol(Z), R^{-T} =
  // L^{-1}) and the local triangular multiply Q_p = A_p R^{-1}, with the
  // per-panel NotSpd isolation.
  for (std::size_t i = 0; i < k; ++i) {
    obs::SpanScope item_span("core", "batched_item");
    item_span.arg("item", static_cast<double>(i));
    const i64 n = panels[i]->cols();
    lin::Matrix z;
    lin::MatrixView zv{slab.data() + off[i], n, n, n};
    if (f32_gram) {
      const std::span<double> w = zf[i].wire();
      std::copy(slab.data() + off[i], slab.data() + off[i] + w.size(),
                w.data());
      z = lin::Matrix::uninit(n, n);
      lin::widen(zf[i], z);
      zv = z;
    }
    if (shift != 0.0) {
      for (i64 j = 0; j < n; ++j) zv(j, j) += shift;
    }
    try {
      auto li = lin::cholinv(zv, tol);
      lin::trmm(lin::Side::Right, lin::Uplo::Lower, lin::Trans::T,
                lin::Diag::NonUnit, 1.0, li.l_inv, out[i].q.local());
      // Transpose L into the returned upper-triangular R.  Deliberately
      // sequential: the n^2/2-element extraction is noise next to the
      // n^3/3 cholinv above.
      for (i64 j = 0; j < n; ++j) {
        for (i64 r = 0; r <= j; ++r) out[i].r(r, j) = li.l(j, r);
      }
    } catch (const NotSpdError&) {
      out[i].ok = false;
      out[i].error = std::current_exception();
    }
  }
  return out;
}

namespace {

using detail::PassOut;

/// The shifted CholeskyQR3 rerun for one padded panel -- byte-for-byte
/// the fallback tail of the standalone driver at c == 1.
void run_shifted(const detail::Padded& padded, const rt::Comm& world,
                 BatchedItem& item) {
  obs::SpanScope span("core", "shifted_rerun");
  span.arg("n", static_cast<double>(padded.n));
  grid::TunableGrid g(world, 1, world.size());
  DistMatrix da = DistMatrix::from_global_on_tunable(padded.a, g);
  CaCqrResult fact = ca_cqr3(da, g);
  item.used_shift = true;
  item.q = detail::strip(dist::gather(fact.q, g.slice()), padded.m, padded.n);
  item.r = detail::strip(dist::gather(fact.r, g.subcube().slice()), padded.n,
                         padded.n);
  item.ok = true;
  item.error = nullptr;
}

}  // namespace

std::vector<BatchedItem> factorize_batched(
    std::span<const lin::ConstMatrixView> panels, const rt::Comm& world,
    const BatchedOptions& opts) {
  ensure(opts.passes >= 1 && opts.passes <= 3,
         "factorize_batched: passes must be 1, 2 or 3");
  const int p = world.size();
  const std::size_t b = panels.size();
  std::vector<BatchedItem> out(b);
  if (b == 0) return out;

  obs::SpanScope batch_span("core", "factorize_batched");
  batch_span.arg("b", static_cast<double>(b));
  batch_span.arg("passes", opts.passes);

  // Pad + scatter every panel exactly as the standalone driver does.
  std::vector<detail::Padded> padded;
  std::vector<DistMatrix> da;
  padded.reserve(b);
  da.reserve(b);
  for (const lin::ConstMatrixView& a : panels) {
    ensure_dim(a.rows >= a.cols && a.cols >= 1,
               "factorize_batched: requires m >= n >= 1");
    padded.push_back(detail::pad_for_grid(a, 1, p));
    da.push_back(
        DistMatrix::from_global(padded.back().a, p, 1, world.rank(), 0));
  }

  // Panels that need the shifted rerun after the sweep (index order).
  std::vector<std::size_t> pending_shift;

  if (opts.passes == 3) {
    for (std::size_t i = 0; i < b; ++i) pending_shift.push_back(i);
  } else {
    std::vector<const DistMatrix*> live;
    std::vector<std::size_t> live_idx;
    for (std::size_t i = 0; i < b; ++i) {
      live.push_back(&da[i]);
      live_idx.push_back(i);
    }
    // Pass 1: `mixed` degenerates to the fp32 Gram when it is the only
    // pass, exactly as ca_cqr treats any non-fp64 mode as the fp32 lane.
    std::vector<PassOut> first = detail::batched_pass_1d(
        live, world, opts.precision != Precision::fp64);

    auto fail = [&](std::size_t idx, std::exception_ptr err) {
      if (opts.auto_shift) {
        pending_shift.push_back(idx);
      } else {
        out[idx].ok = false;
        out[idx].error = std::move(err);
      }
    };

    std::vector<PassOut*> final_pass(b, nullptr);
    if (opts.passes == 1) {
      for (std::size_t j = 0; j < live_idx.size(); ++j) {
        if (first[j].ok) {
          final_pass[live_idx[j]] = &first[j];
        } else {
          fail(live_idx[j], first[j].error);
        }
      }
    } else {
      // Pass 2 over the survivors of pass 1 (every rank agrees on the
      // set: the failure came out of the replicated Allreduce sum).
      std::vector<const DistMatrix*> live2;
      std::vector<std::size_t> live2_idx;
      for (std::size_t j = 0; j < live_idx.size(); ++j) {
        if (first[j].ok) {
          live2.push_back(&first[j].q);
          live2_idx.push_back(j);
        } else {
          fail(live_idx[j], first[j].error);
        }
      }
      std::vector<PassOut> second = detail::batched_pass_1d(
          live2, world, opts.precision == Precision::fp32);
      for (std::size_t j2 = 0; j2 < live2_idx.size(); ++j2) {
        const std::size_t j = live2_idx[j2];
        if (!second[j2].ok) {
          fail(live_idx[j], second[j2].error);
          continue;
        }
        // Compose R = R2 * R1 sequentially on every rank (Algorithm 7),
        // then hand pass 2's Q forward through pass 1's slot.
        lin::trmm(lin::Side::Left, lin::Uplo::Upper, lin::Trans::N,
                  lin::Diag::NonUnit, 1.0, second[j2].r, first[j].r);
        first[j].q = std::move(second[j2].q);
        final_pass[live_idx[j]] = &first[j];
      }
    }

    // Gather the sweep's survivors and strip the padding, in panel order.
    for (std::size_t i = 0; i < b; ++i) {
      if (final_pass[i] == nullptr) continue;
      out[i].q = detail::strip(dist::gather(final_pass[i]->q, world),
                               padded[i].m, padded[i].n);
      out[i].r = std::move(final_pass[i]->r);
    }
  }

  // Shifted reruns, one panel at a time (collective, consistent order on
  // every rank): the broken panels pay their own full-fp64 CQR3 without
  // touching the batch's fast path.
  for (const std::size_t idx : pending_shift) {
    run_shifted(padded[idx], world, out[idx]);
  }
  return out;
}

}  // namespace cacqr::core
