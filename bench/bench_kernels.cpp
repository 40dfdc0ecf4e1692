/// \file bench_kernels.cpp
/// \brief GFLOP/s of the packed micro-kernel level-3 paths against the
///        seed's scalar loops, over the tall-skinny shapes CholeskyQR2
///        actually feeds (Gram products and triangular updates of m x n
///        panels with m >> n) -- measured once per host-executable
///        micro-kernel variant (generic, avx2, avx512, neon).
///
/// `trmm_r` rows also run at CholeskyQR's own local shape, m = 8192 and
/// n = 16, 32, 64, 128: one rank's panel of a 32768-row matrix over four
/// ranks.
///
/// The "seed" reference implementations below are verbatim copies of the
/// scalar kernels this library shipped with before the packed micro-kernel
/// rebuild (see DESIGN.md section 2), kept here so every future PR can
/// re-measure the speedup against the same baseline.  Seed loops are
/// variant-independent and timed once per shape; the packed kernels are
/// re-timed with each supported variant forced active.
///
/// Benchmark operands are carved out of one 64-byte-aligned slab with
/// fixed inter-operand padding, so the relative alignment of A, B, C and
/// the triangular factor is identical in every process.  (Heap-luck
/// alignment previously made the m=1024 trmm_r/trsm_r absolute rates
/// bimodal across runs at the +/-35% level; see docs/benchmarks.md.)
///
/// Usage: bench_kernels [--json[=PATH]] [--quick] [--threads N]
///   --json     additionally write machine-readable results (default PATH:
///              bench_out/bench_kernels.json) -- the perf-trajectory
///              artifact CI uploads and PRs commit.  Includes a
///              thread-scaling sweep (1/2/4/8 workers) of the gemm paths.
///   --quick    smaller shapes / shorter repetitions (CI smoke mode).
///   --threads  worker budget for the "new" kernel measurements (default:
///              CACQR_THREADS, i.e. 1); the seed reference loops are
///              always single-threaded -- they predate the pool.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/blas_f.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/rng.hpp"

namespace {

using namespace cacqr;
using lin::ConstMatrixView;
using lin::Matrix;
using lin::MatrixView;

// ------------------------------------------------- seed reference kernels

/// Seed T/N gemm: strided dot products, C += alpha * A^T B.
void seed_gemm_tn(double alpha, ConstMatrixView a, ConstMatrixView b,
                  MatrixView c) {
  const i64 m = a.cols;
  const i64 n = b.cols;
  const i64 k = a.rows;
  for (i64 j = 0; j < n; ++j) {
    const double* bc = b.data + j * b.ld;
    double* cc = c.data + j * c.ld;
    for (i64 i = 0; i < m; ++i) {
      const double* ac = a.data + i * a.ld;
      double acc = 0.0;
      for (i64 kk = 0; kk < k; ++kk) acc += ac[kk] * bc[kk];
      cc[i] += alpha * acc;
    }
  }
}

/// Seed N/N gemm: the MB/NB/KB cache-blocked axpy loops (this was the only
/// blocked path in the seed).
void seed_gemm_nn(double alpha, ConstMatrixView a, ConstMatrixView b,
                  MatrixView c) {
  const i64 m = a.rows;
  const i64 n = b.cols;
  const i64 k = a.cols;
  constexpr i64 MB = 256, NB = 128, KB = 128;
  for (i64 jj = 0; jj < n; jj += NB) {
    const i64 nb = std::min(NB, n - jj);
    for (i64 kk = 0; kk < k; kk += KB) {
      const i64 kbb = std::min(KB, k - kk);
      for (i64 ii = 0; ii < m; ii += MB) {
        const i64 mb = std::min(MB, m - ii);
        for (i64 j = jj; j < jj + nb; ++j) {
          double* cc = c.data + j * c.ld;
          for (i64 kx = kk; kx < kk + kbb; ++kx) {
            const double bkj = alpha * b(kx, j);
            if (bkj == 0.0) continue;
            const double* ac = a.data + kx * a.ld;
            for (i64 i = ii; i < ii + mb; ++i) cc[i] += bkj * ac[i];
          }
        }
      }
    }
  }
}

/// Seed gram: per-entry dot products over the lower triangle, mirrored.
void seed_gram(ConstMatrixView a, MatrixView c) {
  const i64 n = a.cols;
  for (i64 j = 0; j < n; ++j) {
    const double* aj = a.data + j * a.ld;
    for (i64 i = j; i < n; ++i) {
      const double* ai = a.data + i * a.ld;
      double acc = 0.0;
      for (i64 kk = 0; kk < a.rows; ++kk) acc += ai[kk] * aj[kk];
      c(i, j) = acc;
    }
  }
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = j + 1; i < n; ++i) c(j, i) = c(i, j);
  }
}

/// Seed right-side trmm, B := B * T^T with T lower (the CholeskyQR
/// Q = A R^{-1} call shape): column-mixing scalar loops.
void seed_trmm_rlt(ConstMatrixView t, MatrixView b) {
  const i64 n = t.rows;
  for (i64 j = 0; j < n; ++j) {
    double* cj = b.data + j * b.ld;
    const double djj = t(j, j);
    for (i64 i = 0; i < b.rows; ++i) cj[i] *= djj;
    for (i64 k = j + 1; k < n; ++k) {
      const double tkj = t(k, j);  // op(T)(k, j) = T(k, j) with T lower
      if (tkj == 0.0) continue;
      const double* ck = b.data + k * b.ld;
      for (i64 i = 0; i < b.rows; ++i) cj[i] += tkj * ck[i];
    }
  }
}

/// Seed right-side trsm, solve X * T^T = B with T lower.
void seed_trsm_rlt(ConstMatrixView t, MatrixView b) {
  const i64 n = t.rows;
  for (i64 j = n - 1; j >= 0; --j) {
    double* cj = b.data + j * b.ld;
    for (i64 k = j + 1; k < n; ++k) {
      const double tkj = t(k, j);
      if (tkj == 0.0) continue;
      const double* ck = b.data + k * b.ld;
      for (i64 i = 0; i < b.rows; ++i) cj[i] -= tkj * ck[i];
    }
    const double djj = t(j, j);
    for (i64 i = 0; i < b.rows; ++i) cj[i] /= djj;
  }
}

// ----------------------------------------------------------- operand slab

/// One 64-byte-aligned allocation all benchmark operands are carved from,
/// each at a 64B boundary with a fixed 3-cache-line gap to its neighbor.
/// The operands' relative alignment is therefore a program constant: the
/// absolute rates of alignment-sensitive shapes (m=1024 trmm_r/trsm_r)
/// stop depending on heap luck.
class OperandSlab {
 public:
  explicit OperandSlab(std::size_t doubles) : cap_(doubles) {
    base_ = static_cast<double*>(
        std::aligned_alloc(64, ((cap_ * sizeof(double) + 63) / 64) * 64));
    if (base_ == nullptr) throw std::bad_alloc();
    std::memset(base_, 0, cap_ * sizeof(double));
  }
  OperandSlab(const OperandSlab&) = delete;
  OperandSlab& operator=(const OperandSlab&) = delete;
  ~OperandSlab() { std::free(base_); }

  MatrixView take(i64 m, i64 n) {
    double* p = base_ + used_;
    used_ += static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
    used_ = (used_ + 7u) & ~std::size_t{7};  // next 64B boundary
    used_ += 24;                             // fixed 192B inter-operand gap
    if (used_ > cap_) {
      std::fprintf(stderr, "operand slab overflow\n");
      std::abort();
    }
    return {p, m, n, m};
  }

 private:
  double* base_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t used_ = 0;
};

// ------------------------------------------------------- timing machinery

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Runs `body` repeatedly until ~`target` seconds elapse (at least once)
/// and returns the best per-iteration time.
template <class F>
double time_best(F&& body, double target) {
  double best = 1e300;
  double total = 0.0;
  do {
    const double t0 = now_seconds();
    body();
    const double dt = now_seconds() - t0;
    best = std::min(best, dt);
    total += dt;
  } while (total < target);
  return best;
}

struct Result {
  std::string kernel;
  std::string variant;  ///< micro-kernel variant of the "new" column
  i64 m = 0;
  i64 n = 0;
  double seed_gflops = 0.0;
  double new_gflops = 0.0;
  [[nodiscard]] double speedup() const {
    return seed_gflops > 0.0 ? new_gflops / seed_gflops : 0.0;
  }
};

/// One point of the thread-scaling sweep: the packed kernel's GFLOP/s for
/// `kernel` at the given worker budget.
struct ScalePoint {
  std::string kernel;
  i64 m = 0;
  i64 n = 0;
  int threads = 0;
  double gflops = 0.0;
};

/// One fp32-lane row: the packed fp32 kernel against its packed fp64 twin
/// under the SAME variant and shape (both charge the fp64 closed-form
/// flop count, so the GF/s ratio is the per-operation rate gain the
/// mixed-precision Gram stage buys).
struct F32Result {
  std::string kernel;
  std::string variant;
  i64 m = 0;
  i64 n = 0;
  double fp64_gflops = 0.0;
  double fp32_gflops = 0.0;
  [[nodiscard]] double speedup() const {
    return fp64_gflops > 0.0 ? fp32_gflops / fp64_gflops : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  std::string json_path = "bench_out/bench_kernels.json";
  int threads = lin::parallel::thread_budget();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
      if (json_path.empty()) {
        std::fprintf(stderr, "error: --json= requires a path\n");
        return 2;
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
      if (threads < 1) {
        std::fprintf(stderr, "error: --threads requires a positive count\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--json[=PATH]] [--quick] [--threads N]\n",
                   argv[0]);
      return 2;
    }
  }
  lin::parallel::set_thread_budget(threads);

  // The kernel grid, then the CholeskyQR pass's own trmm shape: one rank's
  // m/P x n panel of perfbench's 32768 x 64 over P = 4 is m = 8192.
  struct Shape {
    i64 m = 0;
    i64 n = 0;
    bool trmm_only = false;
  };
  std::vector<Shape> shapes;
  for (const i64 m : quick ? std::vector<i64>{1024, 16384}
                           : std::vector<i64>{1024, 16384, 65536}) {
    for (const i64 n : {16, 64, 256}) shapes.push_back({m, n, false});
  }
  for (const i64 n : {16, 32, 64, 128}) shapes.push_back({8192, n, true});
  const double target = quick ? 0.05 : 0.25;

  // Every variant this host can execute, measured in the fixed dispatch
  // order; the CACQR_KERNEL-resolved variant is restored afterwards.
  const std::vector<lin::kernel::Variant> variants =
      lin::kernel::supported_variants();
  const lin::kernel::Variant entry_variant = lin::kernel::active_variant();

  std::vector<Result> results;
  std::vector<F32Result> f32_results;
  std::printf("threads=%d (host hardware threads: %d)\n", threads,
              lin::parallel::hardware_threads());
  std::printf("variants:");
  for (const auto v : variants) {
    std::printf(" %s", lin::kernel::variant_name(v));
  }
  std::printf(" (active: %s)\n",
              lin::kernel::variant_name(entry_variant));
  std::printf("%-10s %-8s %8s %5s %12s %12s %9s\n", "kernel", "variant",
              "m", "n", "seed GF/s", "new GF/s", "speedup");
  std::printf("(*_f32 rows compare lanes, not the seed: columns are packed "
              "fp64 GF/s, packed fp32 GF/s, fp32/fp64)\n");

  for (const Shape& shape : shapes) {
    const i64 m = shape.m;
    const i64 n = shape.n;
    const bool trmm_only = shape.trmm_only;
    Rng rng(static_cast<u64>(m * 1000 + n));
    // Slab layout (fixed order = fixed relative alignment): A, B, the
    // big m x n work/output panels, then the small n x n operands.
    OperandSlab slab(4 * static_cast<std::size_t>(m) *
                         static_cast<std::size_t>(n) +
                     4 * static_cast<std::size_t>(n) *
                         static_cast<std::size_t>(n) +
                     8 * 32);
    MatrixView a = slab.take(m, n);
    MatrixView b = slab.take(m, n);
    MatrixView big = slab.take(m, n);   // gemm_nn output
    MatrixView work = slab.take(m, n);  // trmm output, trsm in-place panel
    MatrixView t = slab.take(n, n);
    MatrixView xs = slab.take(n, n);
    MatrixView c = slab.take(n, n);
    MatrixView g = slab.take(n, n);
    lin::copy(lin::gaussian(rng, m, n), a);
    lin::copy(lin::gaussian(rng, m, n), b);
    {
      Matrix t0 = lin::spd_with_cond(rng, n, 10.0);
      lin::potrf(t0);
      lin::copy(t0, t);
    }
    lin::copy(lin::gaussian(rng, n, n), xs);

    // fp32-lane operands: narrowed images of the same A and B.  MatrixF
    // carries its own double-backed (8-byte-aligned) storage; the
    // fp32 kernels pack operands before touching them, so the slab's
    // alignment discipline is not needed here.
    lin::MatrixF af = lin::MatrixF::uninit(m, n);
    lin::MatrixF bf = lin::MatrixF::uninit(m, n);
    lin::narrow(a, af);
    lin::narrow(b, bf);
    lin::MatrixF cf(n, n);
    lin::MatrixF gf(n, n);

    // Seed loops are variant-independent: time them once per shape.
    const double flops_gemm = 2.0 * static_cast<double>(m) *
                              static_cast<double>(n) *
                              static_cast<double>(n);
    const double flops_tri = static_cast<double>(m) *
                             static_cast<double>(n) *
                             static_cast<double>(n + 1);
    const double ts_trmm = time_best(
        [&] {
          lin::copy(b, work);
          seed_trmm_rlt(t, work);
        },
        target);
    double ts_tn = 0.0, ts_gram = 0.0, ts_nn = 0.0, ts_trsm = 0.0;
    if (!trmm_only) {
      ts_tn = time_best([&] { seed_gemm_tn(1.0, a, b, c); }, target);
      ts_gram = time_best([&] { seed_gram(a, g); }, target);
      ts_nn = time_best([&] { seed_gemm_nn(1.0, a, xs, big); }, target);
      ts_trsm = time_best(
          [&] {
            lin::copy(b, work);
            seed_trsm_rlt(t, work);
          },
          target);
    }

    for (const lin::kernel::Variant v : variants) {
      lin::kernel::set_kernel_variant(v);
      const char* vname = lin::kernel::variant_name(v);

      auto record = [&](const char* kernel, double flops, double t_seed,
                        double t_new) {
        Result r;
        r.kernel = kernel;
        r.variant = vname;
        r.m = m;
        r.n = n;
        r.seed_gflops = flops / t_seed * 1e-9;
        r.new_gflops = flops / t_new * 1e-9;
        results.push_back(r);
        std::printf("%-10s %-8s %8lld %5lld %12.2f %12.2f %8.2fx\n",
                    kernel, vname, static_cast<long long>(m),
                    static_cast<long long>(n), r.seed_gflops,
                    r.new_gflops, r.speedup());
        std::fflush(stdout);
      };

      {  // Q = A L^T (right trmm) written from A into its own panel:
         // CholeskyQR's Q = A R^{-1} with R^{-1} = L^{-T}.  The seed
         // column copies A and multiplies in place.
        const double tn = time_best(
            [&] {
              lin::trmm_right(lin::Uplo::Lower, lin::Trans::T,
                              lin::Diag::NonUnit, 1.0, t, b, work);
            },
            target);
        record("trmm_r", flops_tri, ts_trmm, tn);
      }
      if (trmm_only) continue;

      double t_tn_f64 = 0.0;   // fp64 twins of the fp32-lane rows below
      double t_gram_f64 = 0.0;
      {  // C = A^T B: the c > 1 Gram path of CA-CQR (Algorithm 8 line 2).
        const double tn = time_best(
            [&] {
              lin::gemm(lin::Trans::T, lin::Trans::N, 1.0, a, b, 0.0, c);
            },
            target);
        t_tn_f64 = tn;
        record("gemm_tn", flops_gemm, ts_tn, tn);
      }
      {  // G = A^T A: the c == 1 Gram path (Algorithms 4/6).
        const double tn =
            time_best([&] { lin::gram(1.0, a, 0.0, g); }, target);
        t_gram_f64 = tn;
        record("gram", flops_tri, ts_gram, tn);
      }
      {  // C = A X: panel times a square n x n factor.
        const double tn =
            time_best([&] { lin::matmul(a, xs, big); }, target);
        record("gemm_nn", flops_gemm, ts_nn, tn);
      }
      {  // Solve X L^T = B (right trsm): the least-squares backsolve.
        const double tn = time_best(
            [&] {
              lin::copy(b, work);
              lin::trsm(lin::Side::Right, lin::Uplo::Lower, lin::Trans::T,
                        lin::Diag::NonUnit, 1.0, t, work);
            },
            target);
        record("trsm_r", flops_tri, ts_trsm, tn);
      }

      // ---- the fp32 lane of the same variant: the two Gram-path
      // kernels the mixed-precision driver dispatches, measured against
      // the packed fp64 twins just timed (same shapes, same closed-form
      // flop counts, so the ratio is a pure per-operation rate gain).
      auto record_f32 = [&](const char* kernel, double flops,
                            double t_f64, double t_f32) {
        F32Result r;
        r.kernel = kernel;
        r.variant = vname;
        r.m = m;
        r.n = n;
        r.fp64_gflops = flops / t_f64 * 1e-9;
        r.fp32_gflops = flops / t_f32 * 1e-9;
        f32_results.push_back(r);
        std::printf("%-10s %-8s %8lld %5lld %12.2f %12.2f %8.2fx\n",
                    kernel, vname, static_cast<long long>(m),
                    static_cast<long long>(n), r.fp64_gflops,
                    r.fp32_gflops, r.speedup());
        std::fflush(stdout);
      };
      {
        const double tf = time_best(
            [&] {
              lin::gemm_f32(lin::Trans::T, lin::Trans::N, 1.0f, af, bf,
                            0.0f, cf);
            },
            target);
        record_f32("gemm_tn_f32", flops_gemm, t_tn_f64, tf);
      }
      {
        const double tf =
            time_best([&] { lin::gram_f32(1.0f, af, 0.0f, gf); }, target);
        record_f32("gram_f32", flops_tri, t_gram_f64, tf);
      }
    }
    lin::kernel::set_kernel_variant(entry_variant);
  }

  // Thread-scaling sweep of the packed gemm paths at the tall-skinny
  // trajectory shape (m=16384, n=256), under the entry (CACQR_KERNEL)
  // variant: same kernels the acceptance gate tracks.  Run for the JSON
  // artifact so the perf trajectory records how the kernel scales on the
  // measuring host; budgets beyond the host's core count are still
  // measured (they show the oversubscription cliff).
  std::vector<ScalePoint> scaling;
  if (json) {
    const i64 sm = 16384;
    const i64 sn = 256;
    Rng rng(static_cast<u64>(sm * 1000 + sn));
    Matrix a = lin::gaussian(rng, sm, sn);
    Matrix b = lin::gaussian(rng, sm, sn);
    Matrix xs = lin::gaussian(rng, sn, sn);
    Matrix small(sn, sn);
    Matrix big(sm, sn);
    const double flops = 2.0 * static_cast<double>(sm) *
                         static_cast<double>(sn) * static_cast<double>(sn);
    std::printf("\nthread scaling (m=%lld, n=%lld, variant=%s)\n%-10s %8s %12s\n",
                static_cast<long long>(sm), static_cast<long long>(sn),
                lin::kernel::variant_name(entry_variant), "kernel",
                "threads", "GF/s");
    for (const int t : {1, 2, 4, 8}) {
      lin::parallel::set_thread_budget(t);
      const double t_nn = time_best([&] { lin::matmul(a, xs, big); }, target);
      const double t_tn = time_best(
          [&] {
            lin::gemm(lin::Trans::T, lin::Trans::N, 1.0, a, b, 0.0, small);
          },
          target);
      scaling.push_back({"gemm_nn", sm, sn, t, flops / t_nn * 1e-9});
      scaling.push_back({"gemm_tn", sm, sn, t, flops / t_tn * 1e-9});
      std::printf("%-10s %8d %12.2f\n%-10s %8d %12.2f\n", "gemm_nn", t,
                  flops / t_nn * 1e-9, "gemm_tn", t, flops / t_tn * 1e-9);
      std::fflush(stdout);
    }
    lin::parallel::set_thread_budget(threads);
  }

  if (json) {
    std::filesystem::path p(json_path);
    std::error_code ec;
    if (p.has_parent_path()) {
      std::filesystem::create_directories(p.parent_path(), ec);
    }
    std::ofstream out(p);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   p.string().c_str());
      return 1;
    }
    const auto arena = lin::kernel::arena_stats();
    out << "{\n  \"bench\": \"bench_kernels\",\n  \"unit\": \"gflops\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"hw_threads\": " << lin::parallel::hardware_threads() << ",\n"
        << "  \"kernel_variants\": [";
    for (std::size_t i = 0; i < variants.size(); ++i) {
      out << (i ? ", " : "") << "\""
          << lin::kernel::variant_name(variants[i]) << "\"";
    }
    out << "],\n"
        << "  \"active_variant\": \""
        << lin::kernel::variant_name(entry_variant) << "\",\n"
        << "  \"arena_high_water_bytes\": " << arena.high_water_bytes
        << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      out << "    {\"kernel\": \"" << r.kernel << "\", \"kernel_variant\": \""
          << r.variant << "\", \"m\": " << r.m << ", \"n\": " << r.n
          << ", \"seed_gflops\": " << r.seed_gflops
          << ", \"new_gflops\": " << r.new_gflops
          << ", \"speedup\": " << r.speedup() << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"f32_results\": [\n";
    for (std::size_t i = 0; i < f32_results.size(); ++i) {
      const F32Result& r = f32_results[i];
      out << "    {\"kernel\": \"" << r.kernel << "\", \"kernel_variant\": \""
          << r.variant << "\", \"m\": " << r.m << ", \"n\": " << r.n
          << ", \"fp64_gflops\": " << r.fp64_gflops
          << ", \"fp32_gflops\": " << r.fp32_gflops
          << ", \"speedup\": " << r.speedup() << "}"
          << (i + 1 < f32_results.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"thread_scaling\": [\n";
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      const ScalePoint& s = scaling[i];
      out << "    {\"kernel\": \"" << s.kernel << "\", \"kernel_variant\": \""
          << lin::kernel::variant_name(entry_variant) << "\", \"m\": " << s.m
          << ", \"n\": " << s.n << ", \"threads\": " << s.threads
          << ", \"gflops\": " << s.gflops << "}"
          << (i + 1 < scaling.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.close();
    if (!out) {
      std::fprintf(stderr, "error: write to %s failed\n", p.string().c_str());
      return 1;
    }
    std::printf("json written to %s\n", p.string().c_str());
  }
  return 0;
}
