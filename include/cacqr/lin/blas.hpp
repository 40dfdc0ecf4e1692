#pragma once
/// \file blas.hpp
/// \brief Sequential BLAS-subset kernels (levels 1-3).
///
/// These kernels substitute for a vendor BLAS (none is available in the
/// build environment): same mathematical contracts, same flop counts,
/// column-major layout.  All level-3 kernels route through the packed,
/// register-tiled micro-kernel core in kernel.hpp (gemm in all four
/// transpose cases; gram/syrk_nt as triangle-filtered tile sweeps; the
/// right-side trmm as triangle-clipped sweeps; trmm/trsm as blocked
/// recursions whose off-diagonal updates are gemms).
/// Flop counts are charged as closed-form formulas independent of the
/// blocking strategy -- absolute kernel speed only rescales the machine
/// model's gamma parameter (see DESIGN.md section 1).

#include "cacqr/lin/matrix.hpp"

namespace cacqr::lin {

/// Transpose selector for gemm-like kernels.
enum class Trans { N, T };
/// Triangular-storage selector.
enum class Uplo { Lower, Upper };
/// Multiplication side for triangular kernels.
enum class Side { Left, Right };
/// Unit-diagonal selector for triangular kernels.
enum class Diag { NonUnit, Unit };

// ----------------------------------------------------------------- level 1

/// y += alpha * x (element count taken from x; shapes must match).
void axpy(double alpha, ConstMatrixView x, MatrixView y);

/// x *= alpha.
void scal(double alpha, MatrixView x);

/// Frobenius inner product <x, y> = sum_ij x_ij * y_ij.
[[nodiscard]] double dot(ConstMatrixView x, ConstMatrixView y);

/// Euclidean/Frobenius norm of the view.
[[nodiscard]] double nrm2(ConstMatrixView x);

// ----------------------------------------------------------------- level 2

/// y = alpha * op(A) * x + beta * y, with x and y column vectors.
void gemv(Trans trans, double alpha, ConstMatrixView a, ConstMatrixView x,
          double beta, MatrixView y);

// ----------------------------------------------------------------- level 3

/// C = alpha * op(A) * op(B) + beta * C.
void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c);

/// Convenience: C = A * B.
void matmul(ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// C = alpha * A^T A + beta * C, full symmetric result (both triangles
/// written).  Performs m*n^2 flops -- half of the equivalent gemm -- by
/// computing the lower triangle and mirroring, exactly like the Syrk the
/// paper charges in Algorithms 4/6/8.
void gram(double alpha, ConstMatrixView a, double beta, MatrixView c);

/// C = alpha * A A^T + beta * C (lower triangle computed, mirrored).
/// Used by the blocked Cholesky trailing update.
void syrk_nt(double alpha, ConstMatrixView a, double beta, MatrixView c,
             Uplo uplo);

/// Triangular multiply: B = alpha * op(T) * B (Side::Left) or
/// B = alpha * B * op(T) (Side::Right), T triangular per uplo/diag.
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b);

/// Out-of-place right triangular multiply: C = alpha * A * op(T), T
/// triangular per uplo/diag.  Only T's referenced triangle is read.  C is
/// written once and never read, so it may be uninitialized; it must not
/// overlap A or T.  Bitwise equal to trmm(Side::Right) on a copy of A,
/// and charged the same flops.
void trmm_right(Uplo uplo, Trans trans, Diag diag, double alpha,
                ConstMatrixView t, ConstMatrixView a, MatrixView c);

/// Triangular solve: op(T) * X = alpha * B (Side::Left) or
/// X * op(T) = alpha * B (Side::Right); X overwrites B.
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b);

}  // namespace cacqr::lin
