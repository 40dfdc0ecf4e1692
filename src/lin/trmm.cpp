#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/flops.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/parallel.hpp"

namespace cacqr::lin {

namespace {

/// Base-case size for the left-side trmm and the trsm recursions.
/// Diagonal blocks up to this order run the O(n^2)-per-column scalar
/// substitution loops; everything off-diagonal is a packed-kernel gemm
/// (which threads itself).  The right-side trmm bottoms out in the packed
/// driver instead (trmm_right_rec).
constexpr i64 kTriBlock = 32;

inline double tri_at(ConstMatrixView t, Trans trans, i64 i, i64 k) noexcept {
  return trans == Trans::N ? t(i, k) : t(k, i);
}

/// Chunk size giving each base-case parallel_for chunk ~32K scalar madds;
/// rounded to a multiple of 8 (one cache line of doubles) for row splits so
/// adjacent chunks never share a line.
inline i64 tri_grain(i64 n_tri) noexcept {
  const i64 work = std::max<i64>(1, n_tri * n_tri / 2);
  return round_up(std::max<i64>(8, (i64{1} << 15) / work), 8);
}

/// Unblocked B := op(T) * B (alpha folded in by the blocked driver), no
/// flop accounting.  Each B column is independent, so the base case
/// splits columns across the team; every output element keeps one owner
/// and its exact operation order, preserving bitwise identity across
/// thread counts.
void trmm_base_seq(Uplo uplo, Trans trans, Diag diag, ConstMatrixView t,
                   MatrixView b) {
  const i64 n_tri = t.rows;
  const bool lower_op = (uplo == Uplo::Lower) == (trans == Trans::N);
  for (i64 j = 0; j < b.cols; ++j) {
    double* col = b.data + j * b.ld;
    if (lower_op) {
      // Row i depends on rows <= i: traverse bottom-up to update in place.
      for (i64 i = n_tri - 1; i >= 0; --i) {
        double acc =
            diag == Diag::Unit ? col[i] : tri_at(t, trans, i, i) * col[i];
        for (i64 k = 0; k < i; ++k) acc += tri_at(t, trans, i, k) * col[k];
        col[i] = acc;
      }
    } else {
      for (i64 i = 0; i < n_tri; ++i) {
        double acc =
            diag == Diag::Unit ? col[i] : tri_at(t, trans, i, i) * col[i];
        for (i64 k = i + 1; k < n_tri; ++k) {
          acc += tri_at(t, trans, i, k) * col[k];
        }
        col[i] = acc;
      }
    }
  }
}

/// Thread-parallel left-side base case: splits B's columns and runs the
/// sequential loops on each sub-view.
void trmm_base(Uplo uplo, Trans trans, Diag diag, ConstMatrixView t,
               MatrixView b) {
  parallel::parallel_for(b.cols, tri_grain(t.rows), [&](i64 j0, i64 j1) {
    trmm_base_seq(uplo, trans, diag, t, b.sub(0, j0, b.rows, j1 - j0));
  });
}

/// Unblocked forward/backward substitution, alpha pre-applied, no flop
/// accounting.  Left side: each B column is independent, so the base case
/// splits columns across the team.  Right side: columns mix, but every B
/// *row* runs the identical update sequence independently, so rows split
/// instead.  Either way each output element keeps one owner and its exact
/// operation order, preserving bitwise identity across thread counts.
void trsm_base_seq(Side side, Uplo uplo, Trans trans, Diag diag,
                   ConstMatrixView t, MatrixView b) {
  const i64 n_tri = t.rows;
  const bool lower_op = (uplo == Uplo::Lower) == (trans == Trans::N);
  if (side == Side::Left) {
    for (i64 j = 0; j < b.cols; ++j) {
      double* col = b.data + j * b.ld;
      if (lower_op) {
        for (i64 i = 0; i < n_tri; ++i) {
          double acc = col[i];
          for (i64 k = 0; k < i; ++k) acc -= tri_at(t, trans, i, k) * col[k];
          col[i] = diag == Diag::Unit ? acc : acc / tri_at(t, trans, i, i);
        }
      } else {
        for (i64 i = n_tri - 1; i >= 0; --i) {
          double acc = col[i];
          for (i64 k = i + 1; k < n_tri; ++k) {
            acc -= tri_at(t, trans, i, k) * col[k];
          }
          col[i] = diag == Diag::Unit ? acc : acc / tri_at(t, trans, i, i);
        }
      }
    }
  } else if (lower_op) {
    // X(:,j) = (B(:,j) - sum_{k>j} X(:,k) T(k,j)) / T(j,j): right-to-left.
    for (i64 j = n_tri - 1; j >= 0; --j) {
      double* cj = b.data + j * b.ld;
      for (i64 k = j + 1; k < n_tri; ++k) {
        const double tkj = tri_at(t, trans, k, j);
        if (tkj == 0.0) continue;
        const double* ck = b.data + k * b.ld;
        for (i64 i = 0; i < b.rows; ++i) cj[i] -= tkj * ck[i];
      }
      if (diag == Diag::NonUnit) {
        const double djj = tri_at(t, trans, j, j);
        for (i64 i = 0; i < b.rows; ++i) cj[i] /= djj;
      }
    }
  } else {
    for (i64 j = 0; j < n_tri; ++j) {
      double* cj = b.data + j * b.ld;
      for (i64 k = 0; k < j; ++k) {
        const double tkj = tri_at(t, trans, k, j);
        if (tkj == 0.0) continue;
        const double* ck = b.data + k * b.ld;
        for (i64 i = 0; i < b.rows; ++i) cj[i] -= tkj * ck[i];
      }
      if (diag == Diag::NonUnit) {
        const double djj = tri_at(t, trans, j, j);
        for (i64 i = 0; i < b.rows; ++i) cj[i] /= djj;
      }
    }
  }
}

/// Thread-parallel base-case dispatch: splits the independent dimension
/// (columns on the left, rows on the right) and runs the sequential loops
/// on each sub-view.
void trsm_base(Side side, Uplo uplo, Trans trans, Diag diag,
               ConstMatrixView t, MatrixView b) {
  const i64 grain = tri_grain(t.rows);
  if (side == Side::Left) {
    parallel::parallel_for(b.cols, grain, [&](i64 j0, i64 j1) {
      trsm_base_seq(side, uplo, trans, diag, t,
                    b.sub(0, j0, b.rows, j1 - j0));
    });
  } else {
    parallel::parallel_for(b.rows, grain, [&](i64 r0, i64 r1) {
      trsm_base_seq(side, uplo, trans, diag, t,
                    b.sub(r0, 0, r1 - r0, b.cols));
    });
  }
}

/// The off-diagonal block of op(T) below the diagonal (lower_op) or above
/// it (upper op), expressed as (stored block, transpose flag) so it can be
/// fed straight to the packing layer.  With T split at h:
///   lower storage:  T21 = t(h:, :h);   upper storage: T12 = t(:h, h:).
struct OffDiag {
  ConstMatrixView block;
  Trans trans;
};

inline OffDiag off_diag_low(ConstMatrixView t, Trans trans, i64 h) {
  // op(T)(2,1), an (n-h) x h block.
  return trans == Trans::N
             ? OffDiag{t.sub(h, 0, t.rows - h, h), Trans::N}
             : OffDiag{t.sub(0, h, h, t.rows - h), Trans::T};
}

inline OffDiag off_diag_up(ConstMatrixView t, Trans trans, i64 h) {
  // op(T)(1,2), an h x (n-h) block.
  return trans == Trans::N
             ? OffDiag{t.sub(0, h, h, t.rows - h), Trans::N}
             : OffDiag{t.sub(h, 0, t.rows - h, h), Trans::T};
}

/// Blocked B := op(T) * B (no alpha, no accounting): diagonal blocks
/// recurse, off-diagonal updates are packed-kernel gemms.
void trmm_left_rec(Uplo uplo, Trans trans, Diag diag, ConstMatrixView t,
                   MatrixView b) {
  const i64 n_tri = t.rows;
  if (n_tri <= kTriBlock) {
    trmm_base(uplo, trans, diag, t, b);
    return;
  }
  const i64 h = n_tri / 2;
  auto t11 = t.sub(0, 0, h, h);
  auto t22 = t.sub(h, h, n_tri - h, n_tri - h);
  auto b1 = b.sub(0, 0, h, b.cols);
  auto b2 = b.sub(h, 0, b.rows - h, b.cols);
  if ((uplo == Uplo::Lower) == (trans == Trans::N)) {
    // [B1; B2] <- [op11 B1; op21 B1 + op22 B2], B1 updated last so the
    // op21 product reads the original B1.
    trmm_left_rec(uplo, trans, diag, t22, b2);
    const OffDiag od = off_diag_low(t, trans, h);
    kernel::gemm_accumulate(od.trans, Trans::N, 1.0, od.block, b1, b2);
    trmm_left_rec(uplo, trans, diag, t11, b1);
  } else {
    trmm_left_rec(uplo, trans, diag, t11, b1);
    const OffDiag od = off_diag_up(t, trans, h);
    kernel::gemm_accumulate(od.trans, Trans::N, 1.0, od.block, b2, b1);
    trmm_left_rec(uplo, trans, diag, t22, b2);
  }
}

/// Blocked C := alpha * A * op(T), no accounting.  Triangles up to
/// `order` (the packed driver's contraction block) run as one clipped
/// sweep; larger ones split in half, the off-diagonal block a packed gemm.
/// C may be A itself: each half of C is finished before the half of A it
/// overwrites is read again.  In place and out of place run the same
/// blocks in the same order, so they agree bit for bit.
void trmm_right_rec(Uplo uplo, Trans trans, Diag diag, double alpha,
                    ConstMatrixView t, ConstMatrixView a, MatrixView c,
                    i64 order) {
  const i64 n_tri = t.rows;
  if (n_tri <= order) {
    kernel::trmm_sweep(uplo, trans, diag, alpha, t, a, c);
    return;
  }
  const i64 h = n_tri / 2;
  auto t11 = t.sub(0, 0, h, h);
  auto t22 = t.sub(h, h, n_tri - h, n_tri - h);
  auto a1 = a.sub(0, 0, a.rows, h);
  auto a2 = a.sub(0, h, a.rows, a.cols - h);
  auto c1 = c.sub(0, 0, c.rows, h);
  auto c2 = c.sub(0, h, c.rows, c.cols - h);
  if ((uplo == Uplo::Lower) == (trans == Trans::N)) {
    // [C1 C2] = alpha [A1 op11 + A2 op21, A2 op22]: C1 first, A2 last.
    trmm_right_rec(uplo, trans, diag, alpha, t11, a1, c1, order);
    const OffDiag od = off_diag_low(t, trans, h);
    kernel::gemm_accumulate(Trans::N, od.trans, alpha, a2, od.block, c1);
    trmm_right_rec(uplo, trans, diag, alpha, t22, a2, c2, order);
  } else {
    // [C1 C2] = alpha [A1 op11, A1 op12 + A2 op22]: C2 first, A1 last.
    trmm_right_rec(uplo, trans, diag, alpha, t22, a2, c2, order);
    const OffDiag od = off_diag_up(t, trans, h);
    kernel::gemm_accumulate(Trans::N, od.trans, alpha, a1, od.block, c2);
    trmm_right_rec(uplo, trans, diag, alpha, t11, a1, c1, order);
  }
}

/// Blocked solve (alpha pre-applied, no accounting), same split as the trmm
/// recursions with the update directions reversed.
void trsm_rec(Side side, Uplo uplo, Trans trans, Diag diag, ConstMatrixView t,
              MatrixView b) {
  const i64 n_tri = t.rows;
  if (n_tri <= kTriBlock) {
    trsm_base(side, uplo, trans, diag, t, b);
    return;
  }
  const i64 h = n_tri / 2;
  auto t11 = t.sub(0, 0, h, h);
  auto t22 = t.sub(h, h, n_tri - h, n_tri - h);
  const bool lower_op = (uplo == Uplo::Lower) == (trans == Trans::N);
  if (side == Side::Left) {
    auto b1 = b.sub(0, 0, h, b.cols);
    auto b2 = b.sub(h, 0, b.rows - h, b.cols);
    if (lower_op) {
      // Forward: X1 = op11^{-1} B1; B2 -= op21 X1; X2 = op22^{-1} B2.
      trsm_rec(side, uplo, trans, diag, t11, b1);
      const OffDiag od = off_diag_low(t, trans, h);
      kernel::gemm_accumulate(od.trans, Trans::N, -1.0, od.block, b1, b2);
      trsm_rec(side, uplo, trans, diag, t22, b2);
    } else {
      trsm_rec(side, uplo, trans, diag, t22, b2);
      const OffDiag od = off_diag_up(t, trans, h);
      kernel::gemm_accumulate(od.trans, Trans::N, -1.0, od.block, b2, b1);
      trsm_rec(side, uplo, trans, diag, t11, b1);
    }
  } else {
    auto b1 = b.sub(0, 0, b.rows, h);
    auto b2 = b.sub(0, h, b.rows, b.cols - h);
    if (lower_op) {
      // X2 op22 = B2; B1 -= X2 op21; X1 op11 = B1.
      trsm_rec(side, uplo, trans, diag, t22, b2);
      const OffDiag od = off_diag_low(t, trans, h);
      kernel::gemm_accumulate(Trans::N, od.trans, -1.0, b2, od.block, b1);
      trsm_rec(side, uplo, trans, diag, t11, b1);
    } else {
      trsm_rec(side, uplo, trans, diag, t11, b1);
      const OffDiag od = off_diag_up(t, trans, h);
      kernel::gemm_accumulate(Trans::N, od.trans, -1.0, b1, od.block, b2);
      trsm_rec(side, uplo, trans, diag, t22, b2);
    }
  }
}

/// Scaling passes split like gemm.cpp's: ~32K element touches per chunk,
/// and never adjacent columns of a tiny B to separate threads.
constexpr i64 kScaleChunkElems = i64{1} << 15;

/// B := 0, the whole product when alpha == 0 (no operand is read).
void zero_fill(MatrixView b) {
  parallel::parallel_for_cols(b.rows, b.cols, kScaleChunkElems,
                              [&](i64 j0, i64 j1) {
    for (i64 j = j0; j < j1; ++j) {
      double* cj = b.data + j * b.ld;
      for (i64 i = 0; i < b.rows; ++i) cj[i] = 0.0;
    }
  });
}

/// Dense triangular-multiply count: n(n-1)/2 off-diagonal madds plus n
/// diagonal multiplies per vector.
void charge_trmm(i64 vecs, i64 n_tri) {
  flops::add(2 * vecs * (n_tri * (n_tri - 1) / 2 + n_tri));
}

}  // namespace

void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  ensure_dim(t.rows == t.cols, "trmm: T must be square");
  const i64 n_tri = t.rows;
  ensure_dim(side == Side::Left ? b.rows == n_tri : b.cols == n_tri,
             "trmm: ", side == Side::Left ? "left" : "right",
             " operand size mismatch");

  if (alpha == 0.0) {
    zero_fill(b);
  } else if (side == Side::Right) {
    trmm_right_rec(uplo, trans, diag, alpha, t, b, b,
                   kernel::trmm_sweep_order());
  } else {
    trmm_left_rec(uplo, trans, diag, t, b);
    if (alpha != 1.0) {
      parallel::parallel_for_cols(b.rows, b.cols, kScaleChunkElems,
                                  [&](i64 j0, i64 j1) {
        for (i64 j = j0; j < j1; ++j) {
          double* cj = b.data + j * b.ld;
          for (i64 i = 0; i < b.rows; ++i) cj[i] *= alpha;
        }
      });
    }
  }
  // One vector per B column (left) or row (right).
  charge_trmm(side == Side::Left ? b.cols : b.rows, n_tri);
}

void trmm_right(Uplo uplo, Trans trans, Diag diag, double alpha,
                ConstMatrixView t, ConstMatrixView a, MatrixView c) {
  ensure_dim(t.rows == t.cols, "trmm_right: T must be square");
  ensure_dim(a.cols == t.rows && c.rows == a.rows && c.cols == a.cols,
             "trmm_right: operand size mismatch");
  if (alpha == 0.0) {
    zero_fill(c);
  } else {
    trmm_right_rec(uplo, trans, diag, alpha, t, a, c,
                   kernel::trmm_sweep_order());
  }
  charge_trmm(a.rows, t.rows);
}

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  ensure_dim(t.rows == t.cols, "trsm: T must be square");
  const i64 n_tri = t.rows;
  ensure_dim(side == Side::Left ? b.rows == n_tri : b.cols == n_tri,
             "trsm: ", side == Side::Left ? "left" : "right",
             " operand size mismatch");

  if (alpha != 1.0) scal(alpha, b);
  trsm_rec(side, uplo, trans, diag, t, b);

  // Substitution count: n(n-1)/2 off-diagonal madds per vector, plus the
  // diagonal term -- charged unconditionally on the left (the accumulator
  // write), only for NonUnit divisions on the right.
  i64 madds;
  if (side == Side::Left) {
    madds = b.cols * (n_tri * (n_tri - 1) / 2 + n_tri);
  } else {
    madds = b.rows * (n_tri * (n_tri - 1) / 2) +
            (diag == Diag::NonUnit ? b.rows * n_tri : 0);
  }
  flops::add(2 * madds);
}

}  // namespace cacqr::lin
