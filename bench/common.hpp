#pragma once
/// \file common.hpp
/// \brief Shared machinery for the figure/table bench harnesses.
///
/// Every bench prints the same rows/series the paper reports (aligned
/// table on stdout) and writes a CSV next to the binary under bench_out/.
/// Absolute GF/s numbers come from the calibrated machine models; what is
/// expected to reproduce is the *shape*: who wins, by what factor, where
/// the crossovers fall (see docs/benchmarks.md).

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "cacqr/model/sweep.hpp"
#include "cacqr/support/table.hpp"

namespace cacqr::bench {

/// Output directory for CSV artifacts (created on demand).
inline std::string out_dir() {
  const std::string dir = "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Emits a finished table to stdout and CSV.
inline void emit(const std::string& name, const TextTable& table) {
  std::cout << "==== " << name << " ====\n" << table.str() << "\n";
  table.write_csv(out_dir() + "/" + name + ".csv");
}

/// The c values swept for CA-CQR2 series in the figures.
inline std::vector<i64> c_values() { return {1, 2, 4, 8, 16, 32}; }

/// Whether grid (c, d = ranks/c^2) is usable for an m x n matrix.
inline bool grid_ok(i64 ranks, i64 c, double m, double n) {
  if (c * c > ranks || ranks % (c * c) != 0) return false;
  const i64 d = ranks / (c * c);
  if (d % c != 0) return false;
  return static_cast<double>(d) <= m && static_cast<double>(c) <= n;
}

/// One strong-scaling figure: GF/s/node for ScaLAPACK-best and per-c
/// CA-CQR2 series over the node counts, plus the best-vs-best ratio at
/// the largest node count (the number the paper quotes per plot).
inline void strong_scaling_figure(const std::string& name,
                                  const model::Machine& machine, double m,
                                  double n,
                                  const std::vector<i64>& node_counts) {
  TextTable t;
  // Two ScaLAPACK columns: the primary explicit-Q comparison (both
  // algorithms deliver Q and R; PDGEQRF + PDORGQR) and the implicit-Q
  // PGEQRF-only timing the paper benchmarked.
  std::vector<std::string> head = {"nodes", "ranks", "ScaLAPACK(best)",
                                   "ScaLAPACK(implicitQ)"};
  for (const i64 c : c_values()) {
    head.push_back("CACQR2(c=" + std::to_string(c) + ")");
  }
  head.push_back("CACQR2(best)");
  head.push_back("best_ratio");
  t.header(head);

  double last_ratio = 0.0;
  for (const i64 nodes : node_counts) {
    const i64 ranks = nodes * machine.ranks_per_node;
    std::vector<std::string> row = {std::to_string(nodes),
                                    std::to_string(ranks)};
    const auto sl = model::best_pgeqrf(m, n, ranks, machine);
    row.push_back(TextTable::num(
        model::gflops_per_node(m, n, sl.seconds, double(nodes))));
    const auto sl_iq =
        model::best_pgeqrf(m, n, ranks, machine, /*form_q=*/false);
    row.push_back(TextTable::num(
        model::gflops_per_node(m, n, sl_iq.seconds, double(nodes))));
    double best = 0.0;
    for (const i64 c : c_values()) {
      if (!grid_ok(ranks, c, m, n)) {
        row.push_back("-");
        continue;
      }
      const auto ch = model::eval_cacqr2(m, n, c, ranks / (c * c), machine);
      const double gf =
          model::gflops_per_node(m, n, ch.seconds, double(nodes));
      best = std::max(best, gf);
      row.push_back(TextTable::num(gf));
    }
    row.push_back(TextTable::num(best));
    last_ratio = best / model::gflops_per_node(m, n, sl.seconds,
                                               double(nodes));
    row.push_back(TextTable::num(last_ratio, 3));
    t.row(std::move(row));
  }
  emit(name, t);
  std::cout << name << ": CA-CQR2(best) / ScaLAPACK(best) at "
            << node_counts.back() << " nodes = " << last_ratio << "x\n\n";
}

/// The paper's weak-scaling (a, b) progression: nodes = base * a * b^2.
struct WeakStep {
  i64 a;
  i64 b;
};
inline std::vector<WeakStep> weak_steps() {
  return {{2, 1}, {1, 2}, {2, 2}, {4, 2}, {8, 2}, {4, 4}, {8, 4}};
}

}  // namespace cacqr::bench
