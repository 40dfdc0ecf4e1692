#include "cacqr/dist/dist_matrix.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/obs/metrics.hpp"

namespace cacqr::dist {

namespace parallel = lin::parallel;

namespace {

/// Message tags for the transpose pairwise exchange (the only p2p traffic
/// in this translation unit).  transpose3d_pair keeps two exchanges in
/// flight between the same partners, so each leg gets its own tag.
constexpr int kTransposeTag = 0x7452;  // 'tr'
constexpr int kTransposeTag2 = 0x7453;

void check_layout_positive(const Layout& lay) {
  ensure_dim(lay.rows >= 0 && lay.cols >= 0, "DistMatrix: negative shape");
  ensure_dim(lay.row_procs >= 1 && lay.col_procs >= 1,
             "DistMatrix: processor counts must be positive");
  ensure_dim(lay.my_row >= 0 && lay.my_row < lay.row_procs &&
                 lay.my_col >= 0 && lay.my_col < lay.col_procs,
             "DistMatrix: rank coordinates outside the processor grid");
}

void check_same_distribution(const Layout& a, const Layout& b,
                             const char* who) {
  ensure_dim(a.rows == b.rows && a.cols == b.cols &&
                 a.row_procs == b.row_procs && a.col_procs == b.col_procs &&
                 a.my_row == b.my_row && a.my_col == b.my_col,
             who, ": operands are not identically distributed");
}

void check_on_cube(const DistMatrix& a, const grid::CubeGrid& g,
                   const char* who) {
  const auto& lay = a.layout();
  ensure_dim(lay.row_procs == g.g() && lay.col_procs == g.g() &&
                 lay.my_row == g.coords().y && lay.my_col == g.coords().x,
             who, ": operand not distributed over this cube grid");
}

std::span<double> span_of(lin::Matrix& m) {
  return {m.data(), static_cast<std::size_t>(m.size())};
}

}  // namespace

DistMatrix::DistMatrix(i64 rows, i64 cols, int row_procs, int col_procs,
                       int my_row, int my_col) {
  layout_ = {rows, cols, row_procs, col_procs, my_row, my_col};
  check_layout_positive(layout_);
  local_ = lin::Matrix(layout_.local_rows(), layout_.local_cols());
}

DistMatrix DistMatrix::uninit(i64 rows, i64 cols, int row_procs,
                              int col_procs, int my_row, int my_col) {
  DistMatrix out;
  out.layout_ = {rows, cols, row_procs, col_procs, my_row, my_col};
  check_layout_positive(out.layout_);
  out.local_ = lin::Matrix::uninit(out.layout_.local_rows(),
                                   out.layout_.local_cols());
  return out;
}

DistMatrix DistMatrix::from_global(lin::ConstMatrixView a, int row_procs,
                                   int col_procs, int my_row, int my_col) {
  // Uninitialized: the pack below writes every local element.
  DistMatrix out = uninit(a.rows, a.cols, row_procs, col_procs, my_row,
                          my_col);
  const Layout& lay = out.layout_;
  // Local pack stage: each local column is written by exactly one team
  // member, so extraction is bitwise identical at any thread budget.
  parallel::parallel_for_cols(
      out.local_.rows(), out.local_.cols(), [&](i64 j0, i64 j1) {
        for (i64 lj = j0; lj < j1; ++lj) {
          const i64 gj = lay.global_col(lj);
          for (i64 li = 0; li < out.local_.rows(); ++li) {
            out.local_(li, lj) = a(lay.global_row(li), gj);
          }
        }
      });
  return out;
}

DistMatrix DistMatrix::from_global_on_cube(lin::ConstMatrixView a,
                                           const grid::CubeGrid& g) {
  return from_global(a, g.g(), g.g(), g.coords().y, g.coords().x);
}

DistMatrix DistMatrix::from_global_on_tunable(lin::ConstMatrixView a,
                                              const grid::TunableGrid& g) {
  return from_global(a, g.d(), g.c(), g.coords().y, g.coords().x);
}

DistMatrix DistMatrix::on_cube(i64 rows, i64 cols, const grid::CubeGrid& g) {
  return DistMatrix(rows, cols, g.g(), g.g(), g.coords().y, g.coords().x);
}

DistMatrix DistMatrix::sub_block(i64 i0, i64 j0, i64 h, i64 w) const {
  const int rp = layout_.row_procs;
  const int cp = layout_.col_procs;
  ensure_dim(i0 >= 0 && j0 >= 0 && h >= 0 && w >= 0 && i0 + h <= rows() &&
                 j0 + w <= cols(),
             "DistMatrix::sub_block out of range");
  ensure_dim(i0 % rp == 0 && h % rp == 0 && j0 % cp == 0 && w % cp == 0,
             "DistMatrix::sub_block: offsets/extents must be divisible by "
             "the processor counts to stay cyclic");
  DistMatrix out(h, w, rp, cp, layout_.my_row, layout_.my_col);
  lin::copy(local_.sub(i0 / rp, j0 / cp, h / rp, w / cp), out.local_);
  return out;
}

void DistMatrix::set_sub_block(i64 i0, i64 j0, const DistMatrix& src) {
  const int rp = layout_.row_procs;
  const int cp = layout_.col_procs;
  const i64 h = src.rows();
  const i64 w = src.cols();
  ensure_dim(i0 >= 0 && j0 >= 0 && i0 + h <= rows() && j0 + w <= cols(),
             "DistMatrix::set_sub_block out of range");
  ensure_dim(i0 % rp == 0 && h % rp == 0 && j0 % cp == 0 && w % cp == 0,
             "DistMatrix::set_sub_block: offsets/extents must be divisible "
             "by the processor counts");
  ensure_dim(src.layout_.row_procs == rp && src.layout_.col_procs == cp &&
                 src.layout_.my_row == layout_.my_row &&
                 src.layout_.my_col == layout_.my_col,
             "DistMatrix::set_sub_block: source layout mismatch");
  lin::copy(src.local_, local_.sub(i0 / rp, j0 / cp, h / rp, w / cp));
}

DistMatrix DistMatrix::quadrant(int qi, int qj) const {
  ensure_dim(rows() % 2 == 0 && cols() % 2 == 0,
             "DistMatrix::quadrant: odd dimensions");
  const i64 h = rows() / 2;
  const i64 w = cols() / 2;
  return sub_block(qi * h, qj * w, h, w);
}

void DistMatrix::set_quadrant(int qi, int qj, const DistMatrix& src) {
  ensure_dim(rows() % 2 == 0 && cols() % 2 == 0,
             "DistMatrix::set_quadrant: odd dimensions");
  set_sub_block(qi * (rows() / 2), qj * (cols() / 2), src);
}

DistMatrix DistMatrix::reinterpret_layout(i64 rows, i64 cols, int row_procs,
                                          int col_procs, int my_row,
                                          int my_col) const {
  DistMatrix out;
  out.layout_ = {rows, cols, row_procs, col_procs, my_row, my_col};
  check_layout_positive(out.layout_);
  ensure_dim(out.layout_.local_rows() == local_.rows() &&
                 out.layout_.local_cols() == local_.cols(),
             "DistMatrix::reinterpret_layout: local block shape changes");
  out.local_ = local_;
  return out;
}

namespace {

/// Bytes held by all ranks' gather staging buffers.
std::atomic<i64> g_staging_bytes{0};

/// Grow-only receive buffer of gather's Allgather, one per rank thread
/// (thread_local, like lin's packing arenas).  A fresh buffer per call
/// maps fresh pages every time, and faulting them in costs several times
/// the copy into them; steady-state gathers of one shape reuse the first
/// call's pages instead.  Growth is published as the dist.staging.*
/// metrics.
class GatherStaging {
 public:
  GatherStaging() = default;
  GatherStaging(const GatherStaging&) = delete;
  GatherStaging& operator=(const GatherStaging&) = delete;
  ~GatherStaging() { charge(-bytes(cap_)); }

  double* get(std::size_t words) {
    if (words > cap_) grow(words);
    return buf_.get();
  }

 private:
  static i64 bytes(std::size_t words) {
    return static_cast<i64>(words * sizeof(double));
  }

  static void charge(i64 delta) {
    const i64 now =
        g_staging_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
    auto& reg = obs::Registry::global();
    reg.gauge("dist.staging.bytes").set(static_cast<double>(now));
    reg.gauge("dist.staging.high_water").record_max(static_cast<double>(now));
  }

  void grow(std::size_t want) {
    // Geometric growth bounds the grow events of ramping shapes.  The old
    // buffer goes first, so the two are never held at once.
    const std::size_t words = std::max(want, cap_ + cap_ / 2);
    const i64 delta = bytes(words) - bytes(cap_);
    buf_.reset();
    buf_.reset(new double[words]);  // default-initialized: no zero pass
    cap_ = words;
    obs::Registry::global().counter("dist.staging.allocations").add(1);
    charge(delta);
  }

  std::unique_ptr<double[]> buf_;
  std::size_t cap_ = 0;  // in words
};

GatherStaging& gather_staging() {
  thread_local GatherStaging staging;
  return staging;
}

}  // namespace

lin::Matrix gather(const DistMatrix& a, const rt::Comm& comm) {
  const Layout& lay = a.layout();
  const int p = lay.row_procs * lay.col_procs;
  ensure_dim(comm.size() == p,
             "gather: communicator size differs from the processor grid");
  ensure_dim(lay.rows % lay.row_procs == 0 && lay.cols % lay.col_procs == 0,
             "gather: dimensions must be divisible by the processor counts");
  const i64 lr = lay.local_rows();
  const i64 lc = lay.local_cols();
  const std::size_t blk = static_cast<std::size_t>(lr * lc);
  const std::size_t total = blk * static_cast<std::size_t>(p);
  double* all = gather_staging().get(total);
  comm.allgather({a.local().data(), blk}, {all, total});

  // Unpack stage: split over local column index lj.  One lj covers the
  // col_procs global columns {x + lj*col_procs : x in ranks}, disjoint
  // across lj, so every element of `full` has exactly one owner and the
  // scatter is bitwise identical at any thread budget.  Each owned column
  // is written once, top to bottom: global row y + li*row_procs comes
  // from the rank at (x, y), which is comm rank x + col_procs * y (the
  // slice convention).  Uninitialized staging: the owners collectively
  // write every element.
  const int rp = lay.row_procs;
  const int cp = lay.col_procs;
  lin::Matrix full = lin::Matrix::uninit(lay.rows, lay.cols);
  parallel::parallel_for_cols(
      lay.rows * cp, lc, [&](i64 j0, i64 j1) {
        for (i64 lj = j0; lj < j1; ++lj) {
          for (int x = 0; x < cp; ++x) {
            double* dst = full.data() + (x + lj * cp) * lay.rows;
            const double* src =
                all + static_cast<std::size_t>(x) * blk +
                static_cast<std::size_t>(lj * lr);
            const std::size_t y_stride = static_cast<std::size_t>(cp) * blk;
            for (i64 li = 0; li < lr; ++li) {
              for (int y = 0; y < rp; ++y) {
                dst[li * rp + y] = src[y * y_stride + li];
              }
            }
          }
        }
      });
  return full;
}

namespace {

void check_transpose_operand(const DistMatrix& a, const grid::CubeGrid& g) {
  check_on_cube(a, g, "transpose3d");
  ensure_dim(a.rows() == a.cols(), "transpose3d: matrix must be square");
  ensure_dim(a.rows() % g.g() == 0,
             "transpose3d: dimension must be divisible by the grid");
}

/// The local permute stage of transpose3d: uninitialized result (every
/// element written below), each output column owned by exactly one team
/// member (rows of `buf` are read shared, which is safe).
DistMatrix transpose_permute(const lin::Matrix& buf, const DistMatrix& a,
                             int y, int x) {
  DistMatrix out = DistMatrix::uninit(a.rows(), a.cols(),
                                      a.layout().row_procs,
                                      a.layout().col_procs, y, x);
  parallel::parallel_for_cols(
      out.local().rows(), out.local().cols(), [&](i64 j0, i64 j1) {
        for (i64 lj = j0; lj < j1; ++lj) {
          for (i64 li = 0; li < out.local().rows(); ++li) {
            out.local()(li, lj) = buf(lj, li);
          }
        }
      });
  return out;
}

}  // namespace

DistMatrix transpose3d(const DistMatrix& a, const grid::CubeGrid& g) {
  check_transpose_operand(a, g);
  const auto [x, y, z] = g.coords();
  (void)z;

  // Entry (i, j) of A^T is A(j, i): my block of the result is exactly the
  // local block of the mirrored rank (x' = y, y' = x), locally transposed.
  // A single transpose is one irreducible dependency chain (stage, swap,
  // permute) with nothing local to hide the exchange behind; see
  // transpose3d_pair for the pipelined back-to-back form.
  lin::Matrix buf = materialize(a.local().view());
  g.slice().sendrecv_swap(g.slice_rank(y, x), kTransposeTag, span_of(buf));
  return transpose_permute(buf, a, y, x);
}

std::pair<DistMatrix, DistMatrix> transpose3d_pair(const DistMatrix& a,
                                                   const DistMatrix& b,
                                                   const grid::CubeGrid& g) {
  check_transpose_operand(a, g);
  check_transpose_operand(b, g);
  ensure_dim(a.rows() == b.rows(), "transpose3d_pair: shapes differ");
  if (!rt::overlap_enabled()) {
    return {transpose3d(a, g), transpose3d(b, g)};
  }
  const auto [x, y, z] = g.coords();
  (void)z;
  const int partner = g.slice_rank(y, x);

  // Pipeline the two exchanges: B's staging copy runs under A's exchange
  // and A's permute under B's exchange (ProgressScope polls the in-flight
  // request between the threaded loop chunks).  Same two sendrecv_swap
  // charges, same per-element writes as the sequential form.
  lin::Matrix abuf = materialize(a.local().view());
  rt::Request aswap =
      g.slice().start_sendrecv_swap(partner, kTransposeTag, span_of(abuf));
  lin::Matrix bbuf;
  {
    rt::ProgressScope scope(g.slice());
    bbuf = materialize(b.local().view());
  }
  rt::Request bswap =
      g.slice().start_sendrecv_swap(partner, kTransposeTag2, span_of(bbuf));
  aswap.wait();
  DistMatrix at;
  {
    rt::ProgressScope scope(g.slice());
    at = transpose_permute(abuf, a, y, x);
  }
  bswap.wait();
  return {std::move(at), transpose_permute(bbuf, b, y, x)};
}

namespace {

/// An mm3d whose broadcasts are in flight: the staging buffers, the two
/// started Bcast requests, and the shape needed to finish.  Splitting
/// start from finish lets block_backsolve start product k+1's broadcasts
/// while product k's gemm/allreduce/accumulate still runs -- the same
/// schedule per communicator on every rank, so the collective-order
/// discipline holds.
struct Mm3dPending {
  lin::Matrix abuf;
  lin::Matrix bbuf;
  rt::Request bcast_a;
  rt::Request bcast_b;
  i64 m = 0;
  i64 n = 0;
  double alpha = 1.0;
};

/// Stages both operands and starts both broadcasts (the first half of
/// mm3d; see the charge comment on dist_matrix.hpp).  With overlap off,
/// each broadcast is waited exactly where the historical blocking calls
/// waited, so mm3d == mm3d_finish(mm3d_start(...)) is bit-for-bit the
/// old schedule in both modes.
Mm3dPending mm3d_start(const DistMatrix& a, const DistMatrix& b,
                       const grid::CubeGrid& g, double alpha) {
  check_on_cube(a, g, "mm3d");
  check_on_cube(b, g, "mm3d");
  ensure_dim(a.cols() == b.rows(), "mm3d: inner dimensions differ");
  const int gg = g.g();
  const i64 m = a.rows();
  const i64 k = a.cols();
  const i64 n = b.cols();
  ensure_dim(m % gg == 0 && k % gg == 0 && n % gg == 0,
             "mm3d: dimensions must be divisible by the grid");
  const auto [x, y, z] = g.coords();

  // Depth layer z owns the k-classes congruent to z: the A block for
  // (row class y, k class z) lives at x == z in my slice row, the B block
  // for (k class z, column class x) at y == z in my slice column.
  // Staging buffers are uninitialized on non-roots (the Bcast overwrites
  // every word).  With overlap on, the A broadcast flies while the B
  // panel is staged (ProgressScope polls it between copy chunks);
  // overlap off waits each broadcast where the blocking calls used to.
  Mm3dPending p;
  p.m = m;
  p.n = n;
  p.alpha = alpha;
  p.abuf = x == z ? materialize(a.local().view())
                  : lin::Matrix::uninit(m / gg, k / gg);
  p.bcast_a = g.row().start_bcast(span_of(p.abuf), z);
  auto stage_b = [&] {
    return y == z ? materialize(b.local().view())
                  : lin::Matrix::uninit(k / gg, n / gg);
  };
  if (rt::overlap_enabled()) {
    rt::ProgressScope scope(g.row());
    p.bbuf = stage_b();
  } else {
    p.bcast_a.wait();
    p.bbuf = stage_b();
  }
  p.bcast_b = g.col().start_bcast(span_of(p.bbuf), z);
  if (!rt::overlap_enabled()) p.bcast_b.wait();
  return p;
}

/// Waits the broadcasts, multiplies, and reduces along depth (the second
/// half of mm3d).
DistMatrix mm3d_finish(Mm3dPending&& p, const grid::CubeGrid& g) {
  const int gg = g.g();
  const auto [x, y, z] = g.coords();
  (void)z;

  // Partial product over my depth layer's k-classes, then sum the g
  // layers along depth.  Consistent k mapping: local index lk on both
  // sides is global k = z + lk * g.  The output is uninitialized: gemm's
  // beta == 0 scale pass overwrites every element before accumulating.
  DistMatrix out = DistMatrix::uninit(p.m, p.n, gg, gg, y, x);
  p.bcast_a.wait();
  p.bcast_b.wait();
  lin::gemm(lin::Trans::N, lin::Trans::N, p.alpha, p.abuf, p.bbuf, 0.0,
            out.local());
  g.depth().allreduce_sum(span_of(out.local()));
  return out;
}

}  // namespace

DistMatrix mm3d(const DistMatrix& a, const DistMatrix& b,
                const grid::CubeGrid& g, double alpha) {
  return mm3d_finish(mm3d_start(a, b, g, alpha), g);
}

void add_scaled(DistMatrix& z, double alpha, const DistMatrix& u) {
  check_same_distribution(z.layout(), u.layout(), "add_scaled");
  lin::axpy(alpha, u.local(), z.local());
}

DistMatrix block_backsolve(const DistMatrix& b, const DistMatrix& r,
                           const DistMatrix& r_inv, i64 nblocks,
                           const grid::CubeGrid& g) {
  const i64 n = r.rows();
  ensure_dim(r.cols() == n && r_inv.rows() == n && r_inv.cols() == n,
             "block_backsolve: R and R^{-1} must be square and same size");
  ensure_dim(b.cols() == n, "block_backsolve: B column count differs");
  ensure_dim(nblocks >= 1 && n % nblocks == 0,
             "block_backsolve: nblocks must divide n");
  if (nblocks == 1) return mm3d(b, r_inv, g);

  const i64 bs = n / nblocks;
  const i64 mp = b.rows();
  DistMatrix x(mp, n, b.layout().row_procs, b.layout().col_procs,
               b.layout().my_row, b.layout().my_col);

  if (!rt::overlap_enabled()) {
    for (i64 j = 0; j < nblocks; ++j) {
      // T_j = B_j - sum_{i<j} X_i R_ij, then X_j = T_j Rinv_jj.
      DistMatrix t = b.sub_block(0, j * bs, mp, bs);
      for (i64 i = 0; i < j; ++i) {
        DistMatrix xi = x.sub_block(0, i * bs, mp, bs);
        DistMatrix rij = r.sub_block(i * bs, j * bs, bs, bs);
        DistMatrix u = mm3d(xi, rij, g);
        add_scaled(t, -1.0, u);
      }
      DistMatrix rinv_jj = r_inv.sub_block(j * bs, j * bs, bs, bs);
      x.set_sub_block(0, j * bs, mm3d(t, rinv_jj, g));
    }
    return x;
  }

  // Overlap mode: pipeline the mm3d sequence across loop iterations with
  // a lookahead of one product.  A product's broadcasts may start as
  // soon as its inputs are final:
  //   * inner product (j, i+1) -- inputs X_{i+1} (set in iteration
  //     i+1 <= j-1) and R -- can start while (j, i) is still being
  //     finished and accumulated;
  //   * iteration j+1's first inner product (j+1, 0) -- inputs X_0 and
  //     R -- can start while iteration j's final multiply (whose output
  //     X_j it does not read) is in flight;
  //   * the final product (j, Rinv_jj) reads the fully-accumulated T_j,
  //     so it can never be hoisted -- it starts right after the last
  //     accumulate.
  // The schedule of starts is a pure function of (j, i), identical on
  // every rank, so the per-communicator collective order is preserved;
  // mm3d_start/finish charge exactly what back-to-back mm3d calls
  // charge, and the accumulation order onto T_j is untouched -- results
  // and counters are bitwise identical to the sequential loop.
  // ProgressScope drives the lookahead's broadcasts underneath each
  // add_scaled and staging copy.
  auto start_inner = [&](i64 j, i64 i) {
    DistMatrix xi = x.sub_block(0, i * bs, mp, bs);
    DistMatrix rij = r.sub_block(i * bs, j * bs, bs, bs);
    return mm3d_start(xi, rij, g, 1.0);
  };
  std::optional<Mm3dPending> next;  // the lookahead product's broadcasts
  for (i64 j = 0; j < nblocks; ++j) {
    DistMatrix t = b.sub_block(0, j * bs, mp, bs);
    for (i64 i = 0; i < j; ++i) {
      Mm3dPending cur = next ? std::move(*next) : start_inner(j, i);
      next.reset();
      if (i + 1 < j) next = start_inner(j, i + 1);
      DistMatrix u = mm3d_finish(std::move(cur), g);
      rt::ProgressScope scope(g.slice());
      add_scaled(t, -1.0, u);
    }
    DistMatrix rinv_jj = r_inv.sub_block(j * bs, j * bs, bs, bs);
    Mm3dPending fin = mm3d_start(t, rinv_jj, g, 1.0);
    // Iteration j+1's first inner product reads X_0, which exists once
    // iteration 0 completed -- so from j >= 1 on it overlaps the final
    // multiply's wait/reduce and the set_sub_block copy below.
    if (j >= 1 && j + 1 < nblocks) next = start_inner(j + 1, 0);
    DistMatrix xj = mm3d_finish(std::move(fin), g);
    rt::ProgressScope scope(g.slice());
    x.set_sub_block(0, j * bs, xj);
  }
  return x;
}

}  // namespace cacqr::dist
