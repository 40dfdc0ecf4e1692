#include "check.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

using cacqr::i64;
using cacqr::lin::ConstMatrixView;

namespace {

constexpr double kUnitRoundoff = 0x1p-53;
constexpr i64 kRowBlock = 256;

/// Copies rows [i0, i0 + h) of `a` transposed into `t` (n x h, column i
/// holds row i0 + i), so the Gram sweep below runs over contiguous rows.
void transpose_rows(ConstMatrixView a, i64 i0, i64 h, std::vector<double>& t) {
  const i64 n = a.cols;
  t.resize(static_cast<std::size_t>(n * h));
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i < h; ++i) {
      t[static_cast<std::size_t>(j + i * n)] = a(i0 + i, j);
    }
  }
}

bool all_finite(ConstMatrixView a) {
  for (i64 j = 0; j < a.cols; ++j) {
    for (i64 i = 0; i < a.rows; ++i) {
      if (!std::isfinite(a(i, j))) return false;
    }
  }
  return true;
}

}  // namespace

Bounds cqr2_bounds(i64 m, i64 n) {
  const double md = static_cast<double>(m);
  const double nd = static_cast<double>(n);
  return {.orth = 7.0 * (md * nd + nd * (nd + 1.0)) * kUnitRoundoff,
          .resid = 6.0 * nd * nd * std::sqrt(nd) * kUnitRoundoff};
}

RowSums row_sums(ConstMatrixView a, ConstMatrixView q, ConstMatrixView r,
                 i64 row0, i64 rows) {
  const i64 n = a.cols;
  const auto nz = static_cast<std::size_t>(n);
  RowSums out;
  out.gram.assign(nz * nz, 0.0);
  out.finite = all_finite(q.sub(row0, 0, rows, n));
  std::vector<double> tq;
  std::vector<double> d(static_cast<std::size_t>(kRowBlock));
  std::vector<double> acc(static_cast<std::size_t>(kRowBlock), 0.0);
  for (i64 i0 = row0; i0 < row0 + rows; i0 += kRowBlock) {
    const i64 h = std::min(kRowBlock, row0 + rows - i0);
    transpose_rows(q, i0, h, tq);
    // G += q_i^T q_i, four rows per sweep over G.
    i64 i = 0;
    for (; i + 4 <= h; i += 4) {
      const double* q0 = tq.data() + i * n;
      const double* q1 = q0 + n;
      const double* q2 = q1 + n;
      const double* q3 = q2 + n;
      for (i64 j = 0; j < n; ++j) {
        double* gj = out.gram.data() + j * n;
        for (i64 k = 0; k < n; ++k) {
          gj[k] += q0[j] * q0[k] + q1[j] * q1[k] + q2[j] * q2[k] + q3[j] * q3[k];
        }
      }
    }
    for (; i < h; ++i) {
      const double* qi = tq.data() + i * n;
      for (i64 j = 0; j < n; ++j) {
        double* gj = out.gram.data() + j * n;
        for (i64 k = 0; k < n; ++k) gj[k] += qi[j] * qi[k];
      }
    }
    // ||A - Q R||^2 over the block, column by column: d = a_k - Q r_k as
    // axpys down the (contiguous) columns of Q.
    for (i64 k = 0; k < n; ++k) {
      const double* ak = &a(i0, k);
      for (i64 t = 0; t < h; ++t) d[static_cast<std::size_t>(t)] = ak[t];
      for (i64 j = 0; j <= k; ++j) {
        const double rjk = r(j, k);
        const double* qj = &q(i0, j);
        for (i64 t = 0; t < h; ++t) d[static_cast<std::size_t>(t)] -= rjk * qj[t];
      }
      for (i64 t = 0; t < h; ++t) {
        acc[static_cast<std::size_t>(t)] += d[static_cast<std::size_t>(t)] * d[static_cast<std::size_t>(t)];
      }
    }
  }
  for (const double v : acc) out.resid_sq += v;
  return out;
}

CheckResult finish_check(const std::vector<RowSums>& parts, ConstMatrixView r,
                         i64 m, double a_fro) {
  CheckResult out;
  const i64 n = r.cols;
  const auto nz = static_cast<std::size_t>(n);
  std::vector<double> g(nz * nz, 0.0);
  double resid_sq = 0.0;
  bool finite = all_finite(r);
  for (const RowSums& p : parts) {
    for (std::size_t i = 0; i < g.size(); ++i) g[i] += p.gram[i];
    resid_sq += p.resid_sq;
    finite = finite && p.finite;
  }
  if (!finite) {
    out.reason = "non-finite";
    return out;
  }
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = j + 1; i < n; ++i) {
      if (r(i, j) != 0.0) {
        out.reason = "r-not-upper";
        return out;
      }
    }
  }
  double orth_sq = 0.0;
  for (i64 j = 0; j < n; ++j) {
    for (i64 k = 0; k < n; ++k) {
      const double d = g[static_cast<std::size_t>(k + j * n)] - (j == k ? 1.0 : 0.0);
      orth_sq += d * d;
    }
  }
  out.orth_err = std::sqrt(orth_sq);
  out.resid_err = std::sqrt(resid_sq) / a_fro;
  const Bounds b = cqr2_bounds(m, n);
  if (!(out.orth_err <= b.orth)) {
    out.reason = "orthogonality";
  } else if (!(out.resid_err <= b.resid)) {
    out.reason = "residual";
  } else {
    out.ok = true;
  }
  return out;
}

double frobenius(ConstMatrixView a) {
  double sum = 0.0;
  for (i64 j = 0; j < a.cols; ++j) {
    for (i64 i = 0; i < a.rows; ++i) sum += a(i, j) * a(i, j);
  }
  return std::sqrt(sum);
}

CheckResult check_qr(ConstMatrixView a, double a_fro, ConstMatrixView q,
                     ConstMatrixView r) {
  const i64 m = a.rows;
  const i64 n = a.cols;
  if (q.rows != m || q.cols != n || r.rows != n || r.cols != n) {
    CheckResult out;
    out.reason = "shape";
    return out;
  }
  return finish_check({row_sums(a, q, r, 0, m)}, r, m, a_fro);
}

}  // namespace perfbench
