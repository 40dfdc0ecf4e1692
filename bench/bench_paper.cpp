/// \file bench_paper.cpp
/// \brief The paper's figures, tables and ablations (arXiv:1710.08471) as
///        one table of entries.
///
/// Every entry prints the rows or series the paper reports (aligned table
/// on stdout) and writes them as CSV under bench_out/ (see
/// docs/benchmarks.md for the entry -> artifact -> CSV map).  Figure rows
/// are modeled: absolute GF/s come from the calibrated machine models, and
/// what reproduces is the shape -- who wins, by what factor, where the
/// crossovers fall.  Table, trace and ablation rows are the cost counters
/// of real runs on thread-ranks, printed next to the model.
///
/// Usage: bench_paper [ENTRY...]
///   With no arguments every entry runs, in table order; otherwise the
///   named entries run in the order given.  An unknown name prints the
///   valid names and exits 1 before anything runs.

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <ranges>
#include <string_view>
#include <tuple>

#include "common.hpp"
#include "cacqr/baseline/pgeqrf_2d.hpp"
#include "cacqr/chol/cfr3d.hpp"
#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/model/costs.hpp"
#include "cacqr/model/sweep.hpp"

namespace {

using namespace cacqr;
using dist::DistMatrix;
using Grids = std::vector<std::pair<i64, i64>>;

// ------------------------------------------------------------ model figures

/// The c values of the per-grid CA-CQR2 series in the figures.
constexpr i64 kCValues[] = {1, 2, 4, 8, 16, 32};

/// The paper's weak-scaling (a, b) progression: nodes = base * a * b^2.
constexpr std::pair<i64, i64> kWeakSteps[] = {{2, 1}, {1, 2}, {2, 2}, {4, 2},
                                              {8, 2}, {4, 4}, {8, 4}};

/// A strong-scaling plot: one m x n matrix over a node list.
struct StrongPlot {
  const char* name;
  model::Machine (*machine)();
  double m, n;
  std::vector<i64> nodes;
};

/// A weak-scaling plot: an (m0 a) x (n0 b) matrix on base * a * b^2 nodes.
struct WeakPlot {
  const char* name;
  model::Machine (*machine)();
  i64 node_base;
  double m0, n0;
};

const std::vector<i64> kBwNodes = {32, 64, 128, 256, 512, 1024, 2048};
const std::vector<i64> kS2Nodes = {64, 128, 256, 512, 1024};

const StrongPlot kFig6[] = {
    {"fig6a_strong_bw_1048576x4096", model::bluewaters, 1048576.0, 4096.0,
     kBwNodes},
    {"fig6b_strong_bw_4194304x2048", model::bluewaters, 4194304.0, 2048.0,
     kBwNodes},
};
const StrongPlot kFig7[] = {
    {"fig7a_strong_s2_524288x8192", model::stampede2, 524288.0, 8192.0,
     kS2Nodes},
    {"fig7b_strong_s2_2097152x4096", model::stampede2, 2097152.0, 4096.0,
     kS2Nodes},
    {"fig7c_strong_s2_8388608x2048", model::stampede2, 8388608.0, 2048.0,
     kS2Nodes},
    {"fig7d_strong_s2_33554432x1024", model::stampede2, 33554432.0, 1024.0,
     kS2Nodes},
};
const WeakPlot kFig4[] = {
    {"fig4a_weak_bw_65536a_x_2048b", model::bluewaters, 16, 65536.0, 2048.0},
    {"fig4b_weak_bw_262144a_x_1024b", model::bluewaters, 16, 262144.0,
     1024.0},
    {"fig4c_weak_bw_1048576a_x_512b", model::bluewaters, 16, 1048576.0,
     512.0},
};
const WeakPlot kFig5[] = {
    {"fig5a_weak_s2_131072a_x_8192b", model::stampede2, 8, 131072.0, 8192.0},
    {"fig5b_weak_s2_262144a_x_4096b", model::stampede2, 8, 262144.0, 4096.0},
    {"fig5c_weak_s2_524288a_x_2048b", model::stampede2, 8, 524288.0, 2048.0},
    {"fig5d_weak_s2_1048576a_x_1024b", model::stampede2, 8, 1048576.0,
     1024.0},
};

/// model::valid_grids(ranks) minus the grids whose local blocks would be
/// empty for an m x n matrix: the filter model::best_cacqr2 applies.
Grids usable_grids(i64 ranks, double m, double n) {
  Grids grids = model::valid_grids(ranks);
  std::erase_if(grids, [&](const std::pair<i64, i64>& g) {
    return double(g.second) > m || double(g.first) > n;
  });
  return grids;
}

double pgeqrf_gflops(double m, double n, i64 nodes,
                     const model::Machine& machine, bool form_q = true) {
  const auto sl = model::best_pgeqrf(m, n, nodes * machine.ranks_per_node,
                                     machine, form_q);
  return model::gflops_per_node(m, n, sl.seconds, double(nodes));
}

void push_series_header(std::vector<std::string>& head) {
  for (const i64 c : kCValues) {
    head.push_back("CACQR2(c=" + std::to_string(c) + ")");
  }
  head.push_back("CACQR2(best)");
}

/// Appends one figure row's CA-CQR2 cells -- GF/s/node per c in kCValues
/// ("-" where no usable grid has that c), then the best -- and returns
/// the best.
double push_series(std::vector<std::string>& row, double m, double n,
                   i64 nodes, const model::Machine& machine) {
  const Grids grids = usable_grids(nodes * machine.ranks_per_node, m, n);
  double best = 0.0;
  for (const i64 c : kCValues) {
    const auto g = std::ranges::find(grids, c, &std::pair<i64, i64>::first);
    if (g == grids.end()) {
      row.push_back("-");
      continue;
    }
    const double gf = model::gflops_per_node(
        m, n, model::eval_cacqr2(m, n, c, g->second, machine).seconds,
        double(nodes));
    best = std::max(best, gf);
    row.push_back(TextTable::num(gf));
  }
  row.push_back(TextTable::num(best));
  return best;
}

/// GF/s/node for ScaLAPACK-best (explicit Q, the primary comparison: both
/// algorithms deliver Q and R), the implicit-Q PGEQRF-only timing the
/// paper benchmarked, and the per-c CA-CQR2 series; then the best-vs-best
/// ratio at the largest node count, the number the paper quotes per plot.
void strong_scaling_figure(const StrongPlot& p) {
  const model::Machine machine = p.machine();
  TextTable t;
  std::vector<std::string> head = {"nodes", "ranks", "ScaLAPACK(best)",
                                   "ScaLAPACK(implicitQ)"};
  push_series_header(head);
  head.push_back("best_ratio");
  t.header(head);

  double ratio = 0.0;
  for (const i64 nodes : p.nodes) {
    std::vector<std::string> row = {
        std::to_string(nodes), std::to_string(nodes * machine.ranks_per_node)};
    const double sl = pgeqrf_gflops(p.m, p.n, nodes, machine);
    row.push_back(TextTable::num(sl));
    row.push_back(TextTable::num(
        pgeqrf_gflops(p.m, p.n, nodes, machine, /*form_q=*/false)));
    ratio = push_series(row, p.m, p.n, nodes, machine) / sl;
    row.push_back(TextTable::num(ratio, 3));
    t.row(std::move(row));
  }
  bench::emit(p.name, t);
  std::cout << p.name << ": CA-CQR2(best) / ScaLAPACK(best) at "
            << p.nodes.back() << " nodes = " << ratio << "x\n\n";
}

/// ScaLAPACK-best against the per-c CA-CQR2 series along the weak steps;
/// returns the final step's best-vs-best ratio.
double weak_figure(const WeakPlot& p) {
  const model::Machine machine = p.machine();
  TextTable t;
  std::vector<std::string> head = {"(a,b)", "nodes", "ScaLAPACK(best)"};
  push_series_header(head);
  head.push_back("ratio");
  t.header(head);

  double ratio = 0.0;
  for (const auto& [a, b] : kWeakSteps) {
    const i64 nodes = p.node_base * a * b * b;
    const double m = p.m0 * double(a);
    const double n = p.n0 * double(b);
    std::vector<std::string> row = {
        "(" + std::to_string(a) + "," + std::to_string(b) + ")",
        std::to_string(nodes)};
    const double sl = pgeqrf_gflops(m, n, nodes, machine);
    row.push_back(TextTable::num(sl));
    ratio = push_series(row, m, n, nodes, machine) / sl;
    row.push_back(TextTable::num(ratio, 3));
    t.row(std::move(row));
  }
  bench::emit(p.name, t);
  return ratio;
}

/// Figure 1(a): the headline strong-scaling summary on Stampede2 -- the
/// best grid per node count for both algorithms over Figure 7's four
/// shapes (constant mn), widest first.  Paper: CA-CQR2 is 2.6x-3.3x
/// faster at 1024 nodes.
void fig1a() {
  const model::Machine s2 = model::stampede2();
  const auto shapes = std::views::reverse(kFig7);
  const std::vector<i64>& node_counts = kFig7[0].nodes;

  TextTable t;
  std::vector<std::string> head = {"nodes"};
  for (const StrongPlot& p : shapes) {
    const std::string tag =
        std::to_string(i64(p.m)) + "x" + std::to_string(i64(p.n));
    head.push_back("SL " + tag);
    head.push_back("CA " + tag);
  }
  t.header(head);
  for (const i64 nodes : node_counts) {
    const i64 ranks = nodes * s2.ranks_per_node;
    std::vector<std::string> row = {std::to_string(nodes)};
    for (const StrongPlot& p : shapes) {
      const auto ca = model::best_cacqr2(p.m, p.n, ranks, s2);
      row.push_back(TextTable::num(pgeqrf_gflops(p.m, p.n, nodes, s2)));
      row.push_back(TextTable::num(
          model::gflops_per_node(p.m, p.n, ca.seconds, double(nodes))));
    }
    t.row(std::move(row));
  }
  bench::emit("fig1a_strong_best_s2", t);

  const i64 ranks = node_counts.back() * s2.ranks_per_node;
  std::cout << "Speedups (CA-CQR2 best / ScaLAPACK best) at "
            << node_counts.back() << " nodes:\n";
  for (const StrongPlot& p : shapes) {
    const auto sl = model::best_pgeqrf(p.m, p.n, ranks, s2);
    const auto ca = model::best_cacqr2(p.m, p.n, ranks, s2);
    std::cout << "  " << i64(p.m) << " x " << i64(p.n) << ": "
              << TextTable::num(sl.seconds / ca.seconds, 3)
              << "x  (chosen c=" << ca.c << ", d=" << ca.d << ")\n";
  }
}

/// Figure 1(b): the headline weak-scaling summary on Stampede2, best grid
/// against best configuration for Figure 5's four families.  The legend's
/// (c, d) is the family's (m0 / 131072, n0 / 1024), so mn^2 scales
/// linearly with nodes.  Paper: CA-CQR2 1.1x-1.9x faster at the last step.
void fig1b() {
  const model::Machine s2 = model::stampede2();
  for (const WeakPlot& p : std::views::reverse(kFig5)) {
    TextTable t;
    t.header({"(a,b)", "nodes", "m", "n", "ScaLAPACK(best)", "CACQR2(best)",
              "best c", "ratio"});
    for (const auto& [a, b] : kWeakSteps) {
      const i64 nodes = p.node_base * a * b * b;
      const double m = p.m0 * double(a);
      const double n = p.n0 * double(b);
      if (m < n) continue;
      const auto ca =
          model::best_cacqr2(m, n, nodes * s2.ranks_per_node, s2);
      const double sl_gf = pgeqrf_gflops(m, n, nodes, s2);
      const double ca_gf =
          model::gflops_per_node(m, n, ca.seconds, double(nodes));
      t.row({"(" + std::to_string(a) + "," + std::to_string(b) + ")",
             std::to_string(nodes), std::to_string(i64(m)),
             std::to_string(i64(n)), TextTable::num(sl_gf),
             TextTable::num(ca_gf), std::to_string(ca.c),
             TextTable::num(ca_gf / sl_gf, 3)});
    }
    bench::emit("fig1b_weak_best_s2_c" + std::to_string(i64(p.m0 / 131072)) +
                    "_d" + std::to_string(i64(p.n0 / 1024)),
                t);
  }
}

/// Figure 4 (a-c): weak scaling on Blue Waters.  ScaLAPACK stays
/// competitive or ahead (the low flops:bandwidth balance makes CQR2's 2x
/// flops expensive); CA-CQR2 closes the gap as the row:column ratio grows.
void fig4() {
  for (const WeakPlot& p : kFig4) weak_figure(p);
}

/// Figure 5 (a-d): weak scaling on Stampede2.  Paper: CA-CQR2 ahead at
/// the final step (8,4) = 1024 nodes by 1.1x / 1.3x / 1.7x / 1.9x.
void fig5() {
  for (const WeakPlot& p : kFig5) {
    const double ratio = weak_figure(p);
    std::cout << p.name << ": final-step ratio = " << ratio << "x\n\n";
  }
}

/// Figure 6 (a, b): strong scaling on Blue Waters.  ScaLAPACK leads at
/// small node counts; larger-c grids take over as nodes grow.  The
/// crossover table is plot (b)'s best c per node count, the paper's
/// example (c = 1 -> 2 near 256 nodes, c = 2 -> 4 near 512).
void fig6() {
  for (const StrongPlot& p : kFig6) strong_scaling_figure(p);

  const StrongPlot& p = kFig6[1];
  const model::Machine bw = p.machine();
  TextTable t;
  t.header({"nodes", "best_c"});
  for (const i64 nodes : p.nodes) {
    double best_s = 1e300;
    i64 best_c = 0;
    for (const auto& [c, d] :
         usable_grids(nodes * bw.ranks_per_node, p.m, p.n)) {
      const double s = model::eval_cacqr2(p.m, p.n, c, d, bw).seconds;
      if (s < best_s) {
        best_s = s;
        best_c = c;
      }
    }
    t.row({std::to_string(nodes), std::to_string(best_c)});
  }
  bench::emit("fig6b_crossovers", t);
}

/// Figure 7 (a-d): strong scaling on Stampede2.  Paper best-vs-best at
/// 1024 nodes: 2.6x (a), 3.3x (b), 3.1x (c), 2.7x (d).
void fig7() {
  for (const StrongPlot& p : kFig7) strong_scaling_figure(p);
}

// ------------------------------------------------------------------ traces

/// Rank 0 prints one traced step and its counter delta; all ranks then
/// re-synchronize so the next step starts together.
void report_step(const rt::Comm& world, const std::string& step,
                 const rt::CostCounters& d) {
  if (world.rank() == 0) {
    std::cout << "  " << step << "\n      msgs=" << d.msgs
              << " words=" << d.words << " flops=" << d.flops << "\n";
  }
  world.barrier();
}

/// Figure 2 as an execution trace: the four 1D-CQR steps run one by one
/// on 4 ranks, each with its measured communication, then the library's
/// own pass for comparison.
void fig2() {
  const int p = 4;
  const i64 m = 32, n = 8;
  std::cout << "==== fig2_trace_1d ====\n";
  std::cout << "1D-CQR of a " << m << " x " << n << " matrix on P = " << p
            << " ranks (Figure 2's steps):\n\n";

  rt::Runtime::run(p, [&](rt::Comm& world) {
    auto da = DistMatrix::from_global(lin::hashed_matrix(23, m, n), p, 1,
                                      world.rank(), 0);
    auto t0 = world.counters();
    lin::Matrix x(n, n);
    lin::gram(1.0, da.local(), 0.0, x);
    report_step(world,
                "step 1: each rank forms X_p = A_p^T A_p from its m/P x n "
                "rows (no communication)",
                world.counters() - t0);

    t0 = world.counters();
    world.allreduce_sum({x.data(), static_cast<std::size_t>(x.size())});
    report_step(world,
                "step 2: Allreduce sums the partial Gram matrices; every "
                "rank now owns Z = A^T A",
                world.counters() - t0);

    t0 = world.counters();
    auto li = lin::cholinv(x);
    report_step(world,
                "step 3: every rank redundantly factors Z = R^T R and "
                "inverts (CholInv)",
                world.counters() - t0);

    t0 = world.counters();
    lin::trmm(lin::Side::Right, lin::Uplo::Lower, lin::Trans::T,
              lin::Diag::NonUnit, 1.0, li.l_inv, da.local());
    report_step(world,
                "step 4: each rank computes its Q rows locally, Q_p = A_p "
                "R^{-1} (no communication)",
                world.counters() - t0);

    grid::TunableGrid g(world, 1, p);
    const DistMatrix dg =
        DistMatrix::from_global_on_tunable(lin::hashed_matrix(23, m, n), g);
    t0 = world.counters();
    const core::CaCqrResult lib = core::ca_cqr(dg, g);
    report_step(world,
                "all four steps as one library pass: core::ca_cqr on the "
                "c = 1 grid",
                world.counters() - t0);

    // The trace is a real factorization, equal to the library's.
    lin::Matrix q = gather(da, world);
    lin::Matrix q_lib = gather(lib.q, g.slice());
    if (world.rank() == 0) {
      std::cout << "\n  check: ||Q^T Q - I||_F = "
                << lin::orthogonality_error(q)
                << ", max |Q - Q_lib| = " << lin::max_abs_diff(q, q_lib)
                << "\n\n";
    }
  });
}

/// Figure 3 as an execution trace: one CA-CQR pass over the 2 x 4 x 2
/// tunable grid -- Gram assembly, subcube CFR3D, panel MM3D.
void fig3() {
  const int c = 2, d = 4;
  const i64 m = 32, n = 8;
  std::cout << "==== fig3_trace_cacqr ====\n";
  std::cout << "CA-CQR of a " << m << " x " << n << " matrix on the " << c
            << " x " << d << " x " << c << " grid (P = " << c * c * d
            << "; Figure 3's steps):\n\n";

  rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    auto da = DistMatrix::from_global_on_tunable(lin::hashed_matrix(29, m, n),
                                                 g);
    auto t0 = world.counters();
    auto z = core::ca_gram(da, g);
    report_step(world,
                "steps 1-5: Z = A^T A assembled on every subcube slice\n"
                "      (row Bcast of A; local W^T A; Reduce within "
                "contiguous\n"
                "      y-groups; Allreduce across strided y-groups; depth "
                "Bcast)",
                world.counters() - t0);

    t0 = world.counters();
    auto fact = chol::cfr3d(z, g.subcube());
    report_step(world,
                "steps 6-7: each of the d/c = " + std::to_string(d / c) +
                    " subcubes runs CFR3D redundantly: R^T and R^{-T}",
                world.counters() - t0);

    t0 = world.counters();
    auto rinv = dist::transpose3d(fact.l_inv, g.subcube());
    auto panel = da.reinterpret_layout(m * c / d, n, c, c, g.coords().y % c,
                                       g.coords().x);
    auto qp = dist::mm3d(panel, rinv, g.subcube());
    report_step(world,
                "step 8: Q = A R^{-1} -- each subcube multiplies its (m "
                "c/d) x n\n"
                "      row-panel with MM3D; no communication between "
                "subcubes",
                world.counters() - t0);

    auto q = qp.reinterpret_layout(m, n, d, c, g.coords().y, g.coords().x);
    lin::Matrix qg = gather(q, g.slice());
    if (world.rank() == 0) {
      std::cout << "\n  check (one CQR pass): ||Q^T Q - I||_F = "
                << lin::orthogonality_error(qg) << "\n\n";
    }
  });
}

// ------------------------------------------------------------------ tables

/// Max-over-ranks counter delta of `body(world, g, x)` on a c x d x c
/// tunable grid, where x = prepare(g) is the rank's operand.  The grid's
/// communicator splits, `prepare` and everything else outside `body` stay
/// uncharged.  Each rank publishes its delta: under a process transport
/// (CACQR_TRANSPORT) a captured variable written by a forked rank never
/// reaches the caller.
template <class Prepare, class Body>
rt::CostCounters measure(int c, int d, Prepare prepare, Body body) {
  const rt::RunOutput out =
      rt::Runtime::run_collect(c * c * d, [&](rt::Comm& world) {
        grid::TunableGrid g(world, c, d);
        auto x = prepare(g);
        const auto before = world.counters();
        body(world, g, x);
        const auto delta = world.counters() - before;
        const double counts[] = {double(delta.msgs), double(delta.words),
                                 double(delta.flops)};
        world.publish(counts);
      });
  std::vector<rt::CostCounters> deltas;
  for (const std::vector<double>& p : out.published) {
    deltas.push_back({.msgs = i64(p[0]), .words = i64(p[1]),
                      .flops = i64(p[2])});
  }
  return rt::max_counters(deltas);
}

/// measure() of a body with no operand to prepare.
template <class Body>
rt::CostCounters measure(int c, int d, Body body) {
  return measure(
      c, d, [](const grid::TunableGrid&) { return 0; },
      [&](rt::Comm& world, grid::TunableGrid& g, int) { body(world, g); });
}

std::string fmt(const rt::CostCounters& c) {
  return "a=" + std::to_string(c.msgs) + " b=" + std::to_string(c.words) +
         " g=" + std::to_string(c.flops);
}

std::string fmt(const model::Cost& c) {
  return "a=" + TextTable::num(c.alpha, 4) + " b=" + TextTable::num(c.beta, 5) +
         " g=" + TextTable::num(c.gamma, 6);
}

/// An n x n SPD operand: the Gram matrix of a hashed 4n x n panel plus n I.
lin::Matrix spd_operand(u64 seed, i64 n) {
  const lin::Matrix tall = lin::hashed_matrix(seed, 4 * n, n);
  lin::Matrix spd(n, n);
  lin::gram(1.0, tall, 0.0, spd);
  for (i64 i = 0; i < n; ++i) spd(i, i) += double(n);
  return spd;
}

/// Table I: asymptotic alpha/beta/gamma of MM3D, CFR3D, 1D-CQR2, 3D-CQR2
/// and CA-CQR2.  Each row is the log-log slope of one cost term of the
/// validated model between two rank counts 64x apart, next to the
/// exponent the table predicts.
void table1() {
  TextTable t;
  t.header({"algorithm", "cost", "slope vs P", "Table I prediction"});
  using Term = std::tuple<const char*, double model::Cost::*, const char*>;
  const auto slopes = [&](const char* algorithm, const model::Cost& a,
                          const model::Cost& b,
                          std::initializer_list<Term> terms) {
    for (const auto& [name, term, prediction] : terms) {
      const double slope = std::log2(b.*term / a.*term) / std::log2(64.0);
      t.row({algorithm, name, TextTable::num(slope, 3), prediction});
    }
  };
  const double sq = 1 << 14;

  // MM3D on a fixed n^3 product (P = 512 -> 32768): alpha ~ log P.
  slopes("MM3D", model::cost_mm3d(sq, sq, sq, 8),
         model::cost_mm3d(sq, sq, sq, 32),
         {{"beta", &model::Cost::beta, "-2/3"},
          {"gamma", &model::Cost::gamma, "-1"}});
  // CFR3D with the bandwidth-minimizing base case n0 = n/P^{2/3}.
  slopes("CFR3D", model::cost_cfr3d(sq, 8), model::cost_cfr3d(sq, 32),
         {{"alpha", &model::Cost::alpha, "+2/3 (P^{2/3} log P)"},
          {"beta", &model::Cost::beta, "-2/3"},
          {"gamma", &model::Cost::gamma, "-1"}});
  // 1D-CQR2 (c = 1, P = 64 -> 4096): the n^2 Allreduce does not shrink,
  // and the redundant n^3 term eventually stops the mn^2/P term scaling.
  const double m1 = 1 << 26, n1 = 1 << 10;
  slopes("1D-CQR2", model::cost_ca_cqr2(m1, n1, 1, 64),
         model::cost_ca_cqr2(m1, n1, 1, 4096),
         {{"beta", &model::Cost::beta, "0 (n^2, P-independent)"},
          {"gamma", &model::Cost::gamma, "-1 until n^3 dominates"}});
  // 3D-CQR2 (c = d = P^{1/3}): beta ~ mn/P^{2/3}.
  const double s3 = 1 << 15;
  slopes("3D-CQR2", model::cost_ca_cqr2(s3, s3, 8, 8),
         model::cost_ca_cqr2(s3, s3, 32, 32),
         {{"beta", &model::Cost::beta, "-2/3"},
          {"gamma", &model::Cost::gamma, "-1"}});
  // CA-CQR2 at the optimal ratio m/d = n/c (m/n = 2048; P = 8192 ->
  // 524288 by matched doublings of c and d): beta ~ (mn^2/P)^{2/3}.
  const double mc = 1 << 22, nc = 1 << 11;
  slopes("CA-CQR2 (opt c)", model::cost_ca_cqr2(mc, nc, 2, 2048),
         model::cost_ca_cqr2(mc, nc, 8, 8192),
         {{"beta", &model::Cost::beta, "-2/3"},
          {"gamma", &model::Cost::gamma, "-1"}});
  bench::emit("table1_asymptotics", t);
}

/// Table II: per-line costs of CFR3D (Algorithm 3), each line's operation
/// run standalone on a 2^3 cube at the first recursion level's sizes.
void table2() {
  const int g = 2;
  const i64 n = 32;     // matrix dimension at the top level
  const i64 h = n / 2;  // operand size of the per-line ops
  const lin::Matrix spd = spd_operand(7, n);
  const lin::Matrix top = materialize(spd.sub(0, 0, h, h));
  const auto on_cube = [&](auto op) {
    return measure(g, g, [&](rt::Comm&, grid::TunableGrid& tg) {
      op(tg.subcube());
    });
  };

  TextTable t;
  t.header({"line", "operation", "measured (max rank)", "model"});

  const i64 n0 = chol::effective_base_case(n, g, 0);
  const lin::Matrix base = materialize(spd.sub(0, 0, n0, n0));
  auto c = on_cube([&](const grid::CubeGrid& cube) {
    lin::Matrix full =
        dist::gather(DistMatrix::from_global_on_cube(base, cube),
                     cube.slice());
    (void)lin::cholinv(full);
  });
  model::Cost mc = model::cost_allgather(double(n0 * n0), double(g * g));
  mc.gamma += model::flops_cholinv(double(n0));
  t.row({"2-3",
         "base case (allgather + CholInv, n0=" + std::to_string(n0) + ")",
         fmt(c), fmt(mc)});

  c = on_cube([&](const grid::CubeGrid& cube) {
    (void)dist::transpose3d(DistMatrix::from_global_on_cube(top, cube),
                            cube);
  });
  t.row({"6", "Transpose(Y11), h=" + std::to_string(h), fmt(c),
         fmt(model::cost_transpose(double(h * h) / (g * g), g * g))});

  c = on_cube([&](const grid::CubeGrid& cube) {
    const auto da = DistMatrix::from_global_on_cube(top, cube);
    (void)dist::mm3d(da, da, cube);
  });
  t.row({"7 (also 9,12,14)", "MM3D(h,h,h)", fmt(c),
         fmt(model::cost_mm3d(double(h), double(h), double(h), g))});

  // Line 10: the Schur-complement axpy (pure local flops).
  c = on_cube([&](const grid::CubeGrid& cube) {
    const auto da = DistMatrix::from_global_on_cube(top, cube);
    auto db = da;
    dist::add_scaled(db, -1.0, da);
  });
  model::Cost axpy;
  axpy.gamma = 2.0 * double(h * h) / (g * g);
  t.row({"10", "A22 - U (axpy)", fmt(c), fmt(axpy)});

  c = on_cube([&](const grid::CubeGrid& cube) {
    (void)chol::cfr3d(DistMatrix::from_global_on_cube(spd, cube), cube);
  });
  t.row({"total", "CFR3D(n=" + std::to_string(n) + ")", fmt(c),
         fmt(model::cost_cfr3d(double(n), g))});
  bench::emit("table2_cfr3d_lines", t);
}

/// Tables III and IV: per-line costs of 1D-CQR and 1D-CQR2 (Algorithms
/// 6-7) on an 8-rank 1D grid.  1D-CQR2 is CA-CQR2 on the c = 1 grid.
void table34() {
  const int p = 8;
  const i64 m = 64 * p, n = 16;
  const lin::Matrix a = lin::hashed_matrix(11, m, n);
  lin::Matrix z(n, n);
  lin::gram(4.0, a, 0.0, z);  // SPD by construction
  // A dense upper-triangular operand: the kernel skips explicit zeros, so
  // an identity would undercount the line's flops.
  lin::Matrix r_inv(n, n);
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i <= j; ++i) r_inv(i, j) = 1.0 + double(i + j);
  }

  TextTable t;
  t.header({"table", "line", "operation", "measured (max rank)", "model"});

  auto c = measure(1, p, [&](rt::Comm& world, grid::TunableGrid&) {
    const auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);
    lin::Matrix x(n, n);
    lin::gram(1.0, da.local(), 0.0, x);
  });
  model::Cost mc;
  mc.gamma = model::flops_gram(double(m) / p, double(n));
  t.row({"III", "1", "Syrk(m/P, n)", fmt(c), fmt(mc)});

  c = measure(1, p, [&](rt::Comm& world, grid::TunableGrid&) {
    std::vector<double> sum(static_cast<std::size_t>(n * n));
    world.allreduce_sum(sum);
  });
  t.row({"III", "2", "Allreduce(n^2, P)", fmt(c),
         fmt(model::cost_allreduce(double(n * n), p))});

  c = measure(1, p, [&](rt::Comm&, grid::TunableGrid&) {
    (void)lin::cholinv(z);
  });
  mc.gamma = model::flops_cholinv(double(n));
  t.row({"III", "3", "CholInv(n)", fmt(c), fmt(mc)});

  c = measure(1, p, [&](rt::Comm& world, grid::TunableGrid&) {
    auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);
    lin::trmm(lin::Side::Right, lin::Uplo::Upper, lin::Trans::N,
              lin::Diag::NonUnit, 1.0, r_inv, da.local());
  });
  mc.gamma = model::flops_trmm(double(m) / p, double(n));
  t.row({"III", "4", "MM(m/P, n, n) as trmm", fmt(c), fmt(mc)});

  // Table IV: 2x 1D-CQR + the local R2 R1 compose.
  c = measure(1, p, [&](rt::Comm&, grid::TunableGrid& g) {
    (void)core::ca_cqr2(DistMatrix::from_global_on_tunable(a, g), g);
  });
  t.row({"IV", "1-3", "1D-CQR2 total", fmt(c),
         fmt(model::cost_ca_cqr2(double(m), double(n), 1.0, p))});
  bench::emit("table34_cqr1d_lines", t);
}

/// Tables V and VI: per-line costs of CA-CQR and CA-CQR2 (Algorithms 8-9)
/// on a 2 x 4 x 2 grid, with the Gram assembly (lines 1-5) measured as
/// the one unit ca_gram executes.
void table56() {
  const int c = 2, d = 4;
  const i64 m = 64, n = 16;
  const lin::Matrix a = lin::hashed_matrix(13, m, n);
  const lin::Matrix spd = spd_operand(17, n);
  const lin::Matrix rn = lin::hashed_matrix(19, n, n);

  TextTable t;
  t.header({"table", "lines", "operation", "measured (max rank)", "model"});

  auto meas = measure(c, d, [&](rt::Comm&, grid::TunableGrid& g) {
    (void)core::ca_gram(DistMatrix::from_global_on_tunable(a, g), g);
  });
  model::Cost mc;
  mc += model::cost_bcast(double(m * n) / (d * c), c);
  mc.gamma += model::flops_gemm(double(n) / c, double(m) / d, double(n) / c);
  mc += model::cost_reduce(double(n * n) / (c * c), c);
  mc += model::cost_allreduce(double(n * n) / (c * c), double(d) / c);
  mc += model::cost_bcast(double(n * n) / (c * c), c);
  t.row({"V", "1-5", "Gram assembly (Bcast,MM,Reduce,Allreduce,Bcast)",
         fmt(meas), fmt(mc)});

  // Line 7 on an SPD operand the size the Gram phase produces.
  meas = measure(c, d, [&](rt::Comm&, grid::TunableGrid& g) {
    (void)chol::cfr3d(DistMatrix::from_global_on_cube(spd, g.subcube()),
                      g.subcube());
  });
  t.row({"V", "7", "CFR3D(n, c^3)", fmt(meas),
         fmt(model::cost_cfr3d(double(n), c))});

  meas = measure(c, d, [&](rt::Comm&, grid::TunableGrid& g) {
    auto panel = DistMatrix::from_global_on_tunable(a, g).reinterpret_layout(
        m * c / d, n, c, c, g.coords().y % c, g.coords().x);
    (void)dist::mm3d(panel, DistMatrix::from_global_on_cube(rn, g.subcube()),
                     g.subcube());
  });
  t.row({"V", "8", "MM3D(m c/d, n, n, c^3)", fmt(meas),
         fmt(model::cost_mm3d(double(m * c) / d, double(n), double(n), c))});

  // Table VI: lines 1-2 are CA-CQR, line 4 the R compose.
  meas = measure(c, d, [&](rt::Comm&, grid::TunableGrid& g) {
    (void)core::ca_cqr2(DistMatrix::from_global_on_tunable(a, g), g);
  });
  t.row({"VI", "1-4", "CA-CQR2 total", fmt(meas),
         fmt(model::cost_ca_cqr2(double(m), double(n), c, d))});
  bench::emit("table56_cacqr_lines", t);
}

// --------------------------------------------------------------- ablations

/// CFR3D base case n0 (Section II-D): the recursion depth trades
/// synchronization (more levels) against bandwidth (bigger redundant base
/// cases); the paper's n0 = n/P^(2/3) minimizes bandwidth.  Measured at
/// small scale, modeled at paper scale.
void ablation_basecase() {
  {
    const int g = 2;
    const i64 n = 64;
    const lin::Matrix spd = spd_operand(52, n);
    TextTable t;
    t.header({"n0", "levels", "msgs", "words", "flops"});
    for (const i64 n0 : {i64{2}, i64{4}, i64{8}, i64{16}, i64{32}, i64{64}}) {
      // The c = d = g tunable grid is one g^3 cube: its subcube.
      const auto mc = measure(
          g, g,
          [&](const grid::TunableGrid& tg) {
            return DistMatrix::from_global_on_cube(spd, tg.subcube());
          },
          [&](rt::Comm&, grid::TunableGrid& tg, const DistMatrix& da) {
            (void)chol::cfr3d(da, tg.subcube(), {.base_case = n0});
          });
      const i64 eff = chol::effective_base_case(n, g, n0);
      t.row({std::to_string(eff), std::to_string(ilog2(n / eff)),
             std::to_string(mc.msgs), std::to_string(mc.words),
             std::to_string(mc.flops)});
    }
    std::cout << "Measured CFR3D(n=" << n << ") on a " << g << "^3 cube:\n";
    bench::emit("ablation_basecase_measured", t);
  }

  const model::Machine s2 = model::stampede2();
  const double n = 8192, g = 8;
  TextTable t;
  t.header({"n0", "alpha", "beta", "gamma", "modeled ms"});
  for (double n0 = 16; n0 <= n; n0 *= 4) {
    const auto c = model::cost_cfr3d(n, g, n0);
    t.row({TextTable::num(n0, 6), TextTable::num(c.alpha, 5),
           TextTable::num(c.beta, 5), TextTable::num(c.gamma, 5),
           TextTable::num(c.time(s2) * 1e3, 4)});
  }
  std::cout << "Modeled CFR3D(n=8192) on an 8^3 cube (" << s2.name
            << "); the paper default n0 = n/P^(2/3) = "
            << TextTable::num(n / (g * g), 4) << ":\n";
  bench::emit("ablation_basecase_modeled", t);
}

/// The InverseDepth knob (Section III-A): "...can lower the computational
/// cost by nearly a factor of 2 ... incurring close to a 2x increase in
/// synchronization cost".  Measured per depth at small scale, modeled at
/// paper scale.
void ablation_inverse() {
  {
    const int c = 2, d = 4;
    const i64 m = 128, n = 32;
    TextTable t;
    t.header({"inverse_depth", "msgs", "words", "flops", "flops vs depth0",
              "msgs vs depth0"});
    const lin::Matrix a = lin::hashed_matrix(51, m, n);
    i64 f0 = 0, m0 = 0;
    for (int depth = 0; depth <= 2; ++depth) {
      const auto mc = measure(
          c, d,
          [&](const grid::TunableGrid& g) {
            return DistMatrix::from_global_on_tunable(a, g);
          },
          [&](rt::Comm&, grid::TunableGrid& g, const DistMatrix& da) {
            (void)core::ca_cqr2(da, g,
                                {.base_case = 4, .inverse_depth = depth});
          });
      if (depth == 0) {
        f0 = mc.flops;
        m0 = mc.msgs;
      }
      t.row({std::to_string(depth), std::to_string(mc.msgs),
             std::to_string(mc.words), std::to_string(mc.flops),
             TextTable::num(double(mc.flops) / double(f0), 3),
             TextTable::num(double(mc.msgs) / double(m0), 3)});
    }
    std::cout << "Measured (real run, " << m << "x" << n << ", c=" << c
              << " d=" << d << "):\n";
    bench::emit("ablation_inverse_measured", t);
  }

  // The Figure 7(c) matrix at 1024 Stampede2 nodes.
  const model::Machine s2 = model::stampede2();
  const double m = 8388608, n = 2048;
  const i64 ranks = 1024 * s2.ranks_per_node;
  const i64 c = 4, d = ranks / 16;
  TextTable t;
  t.header(
      {"inverse_depth", "alpha", "beta", "gamma", "modeled s", "GF/s/node"});
  for (int depth = 0; depth <= 3; ++depth) {
    const auto cost =
        model::cost_ca_cqr2(m, n, double(c), double(d), 0.0, depth);
    const double secs = cost.time(s2);
    t.row({std::to_string(depth), TextTable::num(cost.alpha, 5),
           TextTable::num(cost.beta, 5), TextTable::num(cost.gamma, 5),
           TextTable::num(secs, 4),
           TextTable::num(model::gflops_per_node(m, n, secs, 1024.0))});
  }
  std::cout << "Modeled at 1024 Stampede2 nodes, " << i64(m) << "x" << i64(n)
            << ", c=" << c << ":\n";
  bench::emit("ablation_inverse_modeled", t);
}

/// Section IV's headline: "performance improvements and superior scaling
/// can be attained by increasing the memory footprint to reduce
/// communication" -- c raises memory per rank (mn/(dc) + n^2/c^2) and
/// cuts words moved.  Measured at small scale, modeled at paper scale.
void memory_tradeoff() {
  {
    const i64 m = 128, n = 32;
    TextTable t;
    t.header({"c", "d", "A words/rank", "Gram words/rank", "msgs", "words"});
    const lin::Matrix a = lin::hashed_matrix(61, m, n);
    for (const i64 c : {i64{1}, i64{2}, i64{4}}) {
      const i64 d = 64 / (c * c);
      const auto mc = measure(
          static_cast<int>(c), static_cast<int>(d),
          [&](const grid::TunableGrid& g) {
            return DistMatrix::from_global_on_tunable(a, g);
          },
          [&](rt::Comm&, grid::TunableGrid& g, const DistMatrix& da) {
            (void)core::ca_cqr2(da, g);
          });
      t.row({std::to_string(c), std::to_string(d),
             std::to_string(m * n / (d * c)),
             std::to_string(n * n / (c * c)), std::to_string(mc.msgs),
             std::to_string(mc.words)});
    }
    std::cout << "Measured (real run, " << m << "x" << n << ", P=64):\n";
    bench::emit("memory_tradeoff_measured", t);
  }

  // The Figure 7(b) matrix at 1024 Stampede2 nodes.
  const model::Machine s2 = model::stampede2();
  const double m = 2097152, n = 4096;
  const i64 ranks = 1024 * s2.ranks_per_node;
  TextTable t;
  t.header({"c", "d", "mem words/rank", "beta words", "alpha msgs",
            "GF/s/node"});
  for (const auto& [c, d] : usable_grids(ranks, m, n)) {
    const auto cost = model::cost_ca_cqr2(m, n, double(c), double(d));
    t.row({std::to_string(c), std::to_string(d), TextTable::num(cost.mem, 5),
           TextTable::num(cost.beta, 5), TextTable::num(cost.alpha, 5),
           TextTable::num(
               model::gflops_per_node(m, n, cost.time(s2), 1024.0))});
  }
  std::cout << "Modeled at 1024 Stampede2 nodes, " << i64(m) << "x" << i64(n)
            << " (memory up, words down as c grows):\n";
  bench::emit("memory_tradeoff_modeled", t);
}

double run_cacqr2(int ranks, i64 m, i64 n, const model::Machine& mach) {
  const auto [c, d] = core::choose_grid(ranks, m, n);
  return rt::modeled_time(rt::Runtime::run(
      ranks,
      [&, c = c, d = d](rt::Comm& world) {
        grid::TunableGrid g(world, c, d);
        auto da = DistMatrix::from_global_on_tunable(
            lin::hashed_matrix(71, m, n), g);
        (void)core::ca_cqr2(da, g);
      },
      mach.rt_params()));
}

double run_pgeqrf(int ranks, i64 m, i64 n, const model::Machine& mach) {
  // Tallest process grid meeting the block-cyclic layout constraints
  // (b pr | m, b pr | n, b pc | n at block size 4), like the paper's tall
  // tuned configurations.
  const i64 b = 4;
  int pr = ranks, pc = 1;
  while (pr > 1 &&
         (n % (b * pr) != 0 || m % (b * pr) != 0 || n % (b * pc) != 0)) {
    pr /= 2;
    pc *= 2;
  }
  return rt::modeled_time(rt::Runtime::run(
      ranks,
      [&](rt::Comm& world) {
        baseline::ProcGrid2d g(world, pr, pc);
        auto da = baseline::BlockCyclicMatrix::from_global(
            lin::hashed_matrix(72, m, n), b, g);
        (void)baseline::pgeqrf_2d(da, g, {.normalize_signs = false});
      },
      mach.rt_params()));
}

/// Strong and weak scaling of real executions: full CA-CQR2 and PGEQRF
/// runs on 4..64 thread-ranks under the LogP clock with Stampede2
/// parameters -- the executed counterpart of the paper-scale figures.
void smallscale() {
  const model::Machine s2 = model::stampede2();
  {
    const i64 m = 512, n = 64;
    TextTable t;
    t.header({"ranks", "CACQR2 sim ms", "PGEQRF sim ms", "speedup"});
    for (const int p : {4, 8, 16, 32, 64}) {
      const double ca = run_cacqr2(p, m, n, s2);
      const double sl = run_pgeqrf(p, m, n, s2);
      t.row({std::to_string(p), TextTable::num(ca * 1e3, 4),
             TextTable::num(sl * 1e3, 4), TextTable::num(sl / ca, 3)});
    }
    std::cout << "Real-execution strong scaling (LogP clock, " << s2.name
              << "), " << m << " x " << n << ":\n";
    bench::emit("smallscale_strong", t);
  }

  const i64 n = 32;
  TextTable t;
  t.header({"ranks", "m", "CACQR2 sim ms", "PGEQRF sim ms", "speedup"});
  for (const int p : {4, 8, 16, 32, 64}) {
    const i64 m = 64 * p;
    const double ca = run_cacqr2(p, m, n, s2);
    const double sl = run_pgeqrf(p, m, n, s2);
    t.row({std::to_string(p), std::to_string(m), TextTable::num(ca * 1e3, 4),
           TextTable::num(sl * 1e3, 4), TextTable::num(sl / ca, 3)});
  }
  std::cout << "Real-execution weak scaling (LogP clock), m = 64*P x " << n
            << ":\n";
  bench::emit("smallscale_weak", t);
}

// ------------------------------------------------------------------- table

struct Entry {
  const char* name;
  const char* artifact;  ///< what of the paper the entry reproduces
  void (*run)();
};

constexpr Entry kEntries[] = {
    {"fig1a", "Figure 1(a): strong-scaling summary, Stampede2", fig1a},
    {"fig1b", "Figure 1(b): weak-scaling summary, Stampede2", fig1b},
    {"fig2", "Figure 2: 1D-CQR step trace", fig2},
    {"fig3", "Figure 3: CA-CQR step trace", fig3},
    {"fig4", "Figure 4: weak scaling, Blue Waters", fig4},
    {"fig5", "Figure 5: weak scaling, Stampede2", fig5},
    {"fig6", "Figure 6: strong scaling, Blue Waters", fig6},
    {"fig7", "Figure 7: strong scaling, Stampede2", fig7},
    {"table1", "Table I: asymptotic cost slopes", table1},
    {"table2", "Table II: CFR3D per-line costs", table2},
    {"table34", "Tables III-IV: 1D-CQR(2) per-line costs", table34},
    {"table56", "Tables V-VI: CA-CQR(2) per-line costs", table56},
    {"ablation_basecase", "Section II-D: CFR3D base-case size",
     ablation_basecase},
    {"ablation_inverse", "Section III-A: InverseDepth", ablation_inverse},
    {"memory_tradeoff", "Section IV: memory for communication",
     memory_tradeoff},
    {"smallscale", "executed strong/weak scaling on thread-ranks",
     smallscale},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Entry*> chosen;
  for (int i = 1; i < argc; ++i) {
    const std::string_view name = argv[i];
    const auto* e = std::ranges::find_if(
        kEntries, [&](const Entry& v) { return name == v.name; });
    if (e == std::end(kEntries)) {
      std::cerr << "bench_paper: unknown entry '" << argv[i]
                << "'; valid entries:\n";
      for (const Entry& v : kEntries) {
        std::cerr << "  " << std::left << std::setw(18) << v.name
                  << v.artifact << "\n";
      }
      return 1;
    }
    chosen.push_back(e);
  }
  if (chosen.empty()) {
    for (const Entry& e : kEntries) chosen.push_back(&e);
  }
  for (const Entry* e : chosen) e->run();
  return 0;
}
