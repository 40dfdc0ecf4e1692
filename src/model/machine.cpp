#include "cacqr/model/machine.hpp"

namespace cacqr::model {

// Calibration notes (the presets behind the modeled clock; see
// docs/benchmarks.md, `model_validation.json` schema):
//  - gamma: node peak / ranks-per-node * sustained fraction.  KNL with one
//    MPI rank per core sustains roughly half of peak on DGEMM-heavy code;
//    XE Bulldozer modules ~70%.
//  - beta: *effective* per-rank collective bandwidth.  The raw NIC share
//    (injection bandwidth / ranks-per-node) would be 0.195 GB/s on
//    Stampede2, but most butterfly stages of the small communicators these
//    algorithms use are intra-node shared-memory transfers; measured MPI
//    effective bandwidths with 64 ranks/node sit around 1-1.5 GB/s/rank
//    for mixed traffic.  The machines' *relative* balance (Stampede2
//    ~7-8x more flops per word, the paper's Section IV observation) is
//    preserved -- it is what drives who-wins.
//  - alpha: end-to-end MPI latency (network + software), higher on the
//    Gemini torus than on Omni-Path's fat tree at these scales.

Machine stampede2() {
  Machine m;
  m.name = "Stampede2 (KNL, Omni-Path)";
  m.ranks_per_node = 64;
  m.peak_gflops_node = 3000.0;
  const double sustained_gflops_rank = 3000.0 / 64 * 0.55;  // ~25.8 GF/s
  m.gamma_s = 1.0 / (sustained_gflops_rank * 1e9);
  const double eff_bw_bytes_rank = 1.33e9;  // blended intra/inter-node
  m.beta_s = 8.0 / eff_bw_bytes_rank;
  m.alpha_s = 2.0e-6;
  return m;
}

Machine bluewaters() {
  Machine m;
  m.name = "Blue Waters (Cray XE, Gemini)";
  m.ranks_per_node = 16;
  m.peak_gflops_node = 313.0;
  const double sustained_gflops_rank = 313.0 / 16 * 0.70;  // ~13.7 GF/s
  m.gamma_s = 1.0 / (sustained_gflops_rank * 1e9);
  const double eff_bw_bytes_rank = 1.8e9;  // 16 ranks/node share less
  m.beta_s = 8.0 / eff_bw_bytes_rank;
  m.alpha_s = 3.0e-6;
  return m;
}

double gflops_per_node(double m, double n, double seconds, double nodes) {
  const double hh_flops = 2.0 * m * n * n - 2.0 / 3.0 * n * n * n;
  return hh_flops / seconds / 1e9 / nodes;
}

}  // namespace cacqr::model
