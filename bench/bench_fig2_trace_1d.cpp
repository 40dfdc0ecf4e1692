/// \file bench_fig2_trace_1d.cpp
/// \brief Figure 2: the paper's illustration of the 1D-CQR steps,
///        reproduced as an annotated execution trace: each algorithm step
///        is run on a real 4-rank grid and its measured communication
///        reported, which is exactly what the figure depicts pictorially.

#include <iostream>

#include "common.hpp"
#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/util.hpp"

int main() {
  using namespace cacqr;
  using dist::DistMatrix;
  const int p = 4;
  const i64 m = 32, n = 8;

  std::cout << "==== fig2_trace_1d ====\n";
  std::cout << "1D-CQR of a " << m << " x " << n << " matrix on P = " << p
            << " ranks (Figure 2's steps):\n\n";

  rt::Runtime::run(p, [&](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(23, m, n);
    auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);
    auto report = [&](const std::string& step, const rt::CostCounters& d) {
      if (world.rank() == 0) {
        std::cout << "  " << step << "\n      msgs=" << d.msgs
                  << " words=" << d.words << " flops=" << d.flops << "\n";
      }
      world.barrier();
    };

    auto t0 = world.counters();
    lin::Matrix x(n, n);
    lin::gram(1.0, da.local(), 0.0, x);
    world.charge_local_flops();
    report("step 1: each rank forms X_p = A_p^T A_p from its m/P x n rows "
           "(no communication)",
           world.counters() - t0);

    t0 = world.counters();
    world.allreduce_sum({x.data(), static_cast<std::size_t>(x.size())});
    report("step 2: Allreduce sums the partial Gram matrices; every rank "
           "now owns Z = A^T A",
           world.counters() - t0);

    t0 = world.counters();
    auto li = lin::cholinv(x);
    world.charge_local_flops();
    report("step 3: every rank redundantly factors Z = R^T R and inverts "
           "(CholInv)",
           world.counters() - t0);

    t0 = world.counters();
    lin::trmm(lin::Side::Right, lin::Uplo::Lower, lin::Trans::T,
              lin::Diag::NonUnit, 1.0, li.l_inv, da.local());
    world.charge_local_flops();
    report("step 4: each rank computes its Q rows locally, Q_p = A_p R^{-1} "
           "(no communication)",
           world.counters() - t0);

    // The library's own pass -- ca_cqr on the c = 1 grid -- charges the
    // sum of the four steps.
    grid::TunableGrid g(world, 1, p);
    const DistMatrix dg =
        DistMatrix::from_global_on_tunable(lin::hashed_matrix(23, m, n), g);
    t0 = world.counters();
    const core::CaCqrResult lib = core::ca_cqr(dg, g);
    report("all four steps as one library pass: core::ca_cqr on the c = 1 "
           "grid",
           world.counters() - t0);

    // Verify the trace produced a real factorization, equal to the
    // library's.
    lin::Matrix q = gather(da, world);
    lin::Matrix q_lib = gather(lib.q, g.slice());
    if (world.rank() == 0) {
      std::cout << "\n  check: ||Q^T Q - I||_F = "
                << lin::orthogonality_error(q)
                << ", max |Q - Q_lib| = " << lin::max_abs_diff(q, q_lib)
                << "\n\n";
    }
  });
  return 0;
}
