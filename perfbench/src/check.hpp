#pragma once
/// \file check.hpp
/// \brief Output check for every factorization the benchmark times:
///        orthogonality ||Q^T Q - I||_F and relative residual
///        ||A - Q R||_F / ||A||_F against the CholeskyQR2 error bounds
///        (derivation in perfbench/README.md, "Output check").
///
/// The norms are computed here with plain loops, independent of the
/// library's kernels, so a kernel that goes wrong cannot also bless its
/// own output.

#include <string>
#include <vector>

#include "cacqr/lin/matrix.hpp"

namespace perfbench {

/// Bounds for an m x n CholeskyQR2 factorization in fp64 with
/// u = 2^-53: orth <= 7 (m n + n (n + 1)) u, resid <= 6 n^2.5 u.
struct Bounds {
  double orth = 0.0;
  double resid = 0.0;
};
[[nodiscard]] Bounds cqr2_bounds(cacqr::i64 m, cacqr::i64 n);

struct CheckResult {
  double orth_err = 0.0;
  double resid_err = 0.0;
  bool ok = false;
  std::string reason;  ///< why it failed ("" when ok)
};

/// The check's sums over a range of rows, combinable across ranks that
/// each hold some rows of A and Q (and all of R).
struct RowSums {
  std::vector<double> gram;  ///< n x n: sum of q_i^T q_i
  double resid_sq = 0.0;     ///< sum of ||a_i - q_i R||^2
  bool finite = true;        ///< every q_i entry finite
};
[[nodiscard]] RowSums row_sums(cacqr::lin::ConstMatrixView a,
                               cacqr::lin::ConstMatrixView q,
                               cacqr::lin::ConstMatrixView r, cacqr::i64 row0,
                               cacqr::i64 rows);

/// Combines the row sums of all m rows into the verdict for R and the
/// bounds of an m x n factorization.
[[nodiscard]] CheckResult finish_check(const std::vector<RowSums>& parts,
                                       cacqr::lin::ConstMatrixView r,
                                       cacqr::i64 m, double a_fro);

/// Frobenius norm (plain loop).
[[nodiscard]] double frobenius(cacqr::lin::ConstMatrixView a);

/// Checks shapes, finiteness, R upper triangular, and both error norms
/// against cqr2_bounds(m, n).  `a_fro` is ||A||_F.
[[nodiscard]] CheckResult check_qr(cacqr::lin::ConstMatrixView a,
                                   double a_fro,
                                   cacqr::lin::ConstMatrixView q,
                                   cacqr::lin::ConstMatrixView r);

}  // namespace perfbench
