/// \file bench_table1_asymptotics.cpp
/// \brief Table I: asymptotic alpha/beta/gamma of MM3D, CFR3D, 1D-CQR2,
///        3D-CQR2 and CA-CQR2.  For each algorithm the bench evaluates
///        the (validated) cost model across a geometric range of P and
///        fits the log-log slope of each cost against the table's
///        predicted exponent.

#include <cmath>

#include "common.hpp"
#include "cacqr/model/costs.hpp"

namespace {

using cacqr::TextTable;
using cacqr::model::Cost;

/// log2(y2/y1) per log2(x2/x1): the empirical scaling exponent.
double slope(double y1, double y2, double factor) {
  return std::log2(y2 / y1) / std::log2(factor);
}

}  // namespace

int main() {
  using namespace cacqr;
  TextTable t;
  t.header({"algorithm", "cost", "slope vs P", "Table I prediction"});

  // MM3D, square n x n x n with n fixed: alpha ~ log P (slope ~ 0+),
  // beta ~ P^{-2/3}, gamma ~ P^{-1}.
  {
    const double n = 1 << 14;
    const Cost a = model::cost_mm3d(n, n, n, 8);     // P = 512
    const Cost b = model::cost_mm3d(n, n, n, 32);    // P = 32768
    const double f = 64.0;                           // P ratio
    t.row({"MM3D", "beta", TextTable::num(slope(a.beta, b.beta, f), 3),
           "-2/3"});
    t.row({"MM3D", "gamma", TextTable::num(slope(a.gamma, b.gamma, f), 3),
           "-1"});
  }

  // CFR3D: same exponents as MM3D, alpha ~ P^{2/3} log P with the paper's
  // bandwidth-minimizing base case n0 = n/P^{2/3}.
  {
    const double n = 1 << 14;
    const Cost a = model::cost_cfr3d(n, 8);
    const Cost b = model::cost_cfr3d(n, 32);
    const double f = 64.0;
    t.row({"CFR3D", "alpha", TextTable::num(slope(a.alpha, b.alpha, f), 3),
           "+2/3 (P^{2/3} log P)"});
    t.row({"CFR3D", "beta", TextTable::num(slope(a.beta, b.beta, f), 3),
           "-2/3"});
    t.row({"CFR3D", "gamma", TextTable::num(slope(a.gamma, b.gamma, f), 3),
           "-1"});
  }

  // 1D-CQR2: alpha ~ log P, beta ~ n^2 (slope 0), gamma: the mn^2/P term
  // scales away but the redundant n^3 term does not.
  {
    const double m = 1 << 26, n = 1 << 10;
    const Cost a = model::cost_ca_cqr2(m, n, 1, 64);
    const Cost b = model::cost_ca_cqr2(m, n, 1, 4096);
    const double f = 64.0;
    t.row({"1D-CQR2", "beta", TextTable::num(slope(a.beta, b.beta, f), 3),
           "0 (n^2, P-independent)"});
    t.row({"1D-CQR2", "gamma", TextTable::num(slope(a.gamma, b.gamma, f), 3),
           "-1 until n^3 dominates"});
  }

  // 3D-CQR2 (c = d = P^{1/3}): beta ~ mn/P^{2/3}.
  {
    const double m = 1 << 15, n = 1 << 15;
    const Cost a = model::cost_ca_cqr2(m, n, 8, 8);      // P = 512
    const Cost b = model::cost_ca_cqr2(m, n, 32, 32);    // P = 32768
    const double f = 64.0;
    t.row({"3D-CQR2", "beta", TextTable::num(slope(a.beta, b.beta, f), 3),
           "-2/3"});
    t.row({"3D-CQR2", "gamma", TextTable::num(slope(a.gamma, b.gamma, f), 3),
           "-1"});
  }

  // CA-CQR2 at the optimal grid ratio m/d = n/c: beta ~ (mn^2/P)^{2/3},
  // i.e. slope -2/3 with matrix fixed.
  {
    const double m = 1 << 22, n = 1 << 11;  // m/n = 2048
    // c = (P n / m)^{1/3}: P = 2^15 -> c = 2^{(15+11-22)/3} ~ 2.5 -> use
    // matched doublings that keep the ratio integral.
    const Cost a = model::cost_ca_cqr2(m, n, 2, 2048);   // P = 8192
    const Cost b = model::cost_ca_cqr2(m, n, 8, 8192);   // P = 524288
    const double f = 64.0;
    t.row({"CA-CQR2 (opt c)", "beta",
           TextTable::num(slope(a.beta, b.beta, f), 3), "-2/3"});
    t.row({"CA-CQR2 (opt c)", "gamma",
           TextTable::num(slope(a.gamma, b.gamma, f), 3), "-1"});
  }

  bench::emit("table1_asymptotics", t);
  return 0;
}
