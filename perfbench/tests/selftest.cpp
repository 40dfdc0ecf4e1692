// Self-test of the benchmark's C++ statistics helpers and output check:
// the median, the tail rule, failure accounting, getrusage deltas, the
// steal counter, and the Q/R check.
//
//   python3 perfbench/run.py --self-test     (builds and runs this)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "check.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/qr.hpp"
#include "cacqr/support/rng.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what, int line) {
  if (!cond) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * (1 + std::abs(b)); }

void test_median() {
  using perfbench::median;
  EXPECT(median({3, 1, 2}) == 2);
  EXPECT(median({4, 1, 3, 2}) == 2.5);
  EXPECT(median({7}) == 7);
}

void test_tail() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  auto t = perfbench::tail(v);
  // 1000 samples: p99 is the highest percentile with 10 samples above.
  EXPECT(t.value == 990 && near(t.percentile, 99.0) && t.beyond == 10 &&
         t.samples == 1000);
  v.resize(100);
  t = perfbench::tail(v);
  EXPECT(t.value == 90 && near(t.percentile, 90.0) && t.beyond == 10);
  v.resize(11);
  t = perfbench::tail(v);
  EXPECT(t.value == 1 && t.beyond == 10);
  v.resize(5);  // too few: the maximum, with the shortfall visible
  t = perfbench::tail(v);
  EXPECT(t.value == 5 && t.beyond == 0 && near(t.percentile, 100.0));

  // An intermittent stall: twelve 50 ms operations among 1000 of 1 ms.
  // The median does not see it; the tail does.
  v.assign(1000, 1.0);
  for (std::size_t i = 0; i < v.size(); i += 90) v[i] = 50.0;
  EXPECT(perfbench::median(v) == 1.0 && perfbench::tail(v).value == 50.0);
}

void test_tally() {
  perfbench::Tally t;
  EXPECT(t.attempted == 0 && t.failed == 0);
  t.pass();
  t.pass();
  t.pass();
  t.fail("check: residual");
  EXPECT(t.attempted == 4 && t.failed == 1);
  t.fail("job rejected");
  t.fail("check: residual");
  EXPECT(t.attempted == 6 && t.failed == 3);
  EXPECT(t.reasons["check: residual"] == 2 && t.reasons["job rejected"] == 1);
}

void test_usage() {
  perfbench::Usage a;
  a.user_s = 1.0;
  a.minflt = 10;
  a.nvcsw = 3;
  a.max_rss_kb = 100;
  perfbench::Usage b = a;
  b.user_s = 1.5;
  b.sys_s = 0.25;
  b.minflt = 25;
  b.nvcsw = 4;
  b.nivcsw = 2;
  b.max_rss_kb = 150;
  const perfbench::Usage d = b - a;
  EXPECT(near(d.cpu_s(), 0.75) && d.minflt == 15 && d.ctxsw() == 3 &&
         d.max_rss_kb == 150);
  perfbench::Usage sum;
  sum += d;
  sum += d;
  EXPECT(near(sum.cpu_s(), 1.5) && sum.minflt == 30 && sum.max_rss_kb == 150);

  // Live: burning CPU and touching fresh pages shows in the delta.
  const perfbench::Usage u0 = perfbench::Usage::now();
  std::vector<char> pages(64 << 20, 1);
  volatile double x = 0;
  for (int i = 0; i < 20000000; ++i) x = x + 1e-9 * pages[static_cast<std::size_t>(i) % pages.size()];
  const perfbench::Usage du = perfbench::Usage::now() - u0;
  EXPECT(du.cpu_s() > 0.0);
  EXPECT(du.minflt >= 1000);  // 64 MiB is >= 16384 4-KiB pages
}

void test_steal() {
  // A running total that never falls (or -1 where /proc/stat is hidden).
  const std::int64_t s0 = perfbench::steal_ticks();
  const std::int64_t s1 = perfbench::steal_ticks();
  EXPECT(s0 >= -1);
  EXPECT(s0 < 0 ? s1 < 0 : s1 >= s0);
}

void test_check() {
  namespace lin = cacqr::lin;
  cacqr::Rng rng(7);
  const lin::Matrix a = lin::gaussian(rng, 300, 12);
  const double fro = perfbench::frobenius(a);
  auto qr = lin::householder_qr(a);
  auto good = perfbench::check_qr(a, fro, qr.q, qr.r);
  EXPECT(good.ok && good.orth_err < 1e-13 && good.resid_err < 1e-13);

  lin::Matrix bad_q = qr.q;
  bad_q(5, 3) += 1e-6;  // orthogonality (and residual) broken
  EXPECT(!perfbench::check_qr(a, fro, bad_q, qr.r).ok);
  lin::Matrix bad_r = qr.r;
  bad_r(2, 7) *= 1.0 + 1e-9;  // Q orthonormal, residual broken
  auto c = perfbench::check_qr(a, fro, qr.q, bad_r);
  EXPECT(!c.ok && c.reason == "residual");
  bad_r = qr.r;
  bad_r(7, 2) = 1e-300;  // not upper triangular
  EXPECT(perfbench::check_qr(a, fro, qr.q, bad_r).reason == "r-not-upper");
  bad_q = qr.q;
  bad_q(0, 0) = std::nan("");
  EXPECT(perfbench::check_qr(a, fro, bad_q, qr.r).reason == "non-finite");
  // A Q that is A itself with R = I passes neither test (a kernel that
  // returned identity Gram matrices would produce exactly this).
  EXPECT(!perfbench::check_qr(a, fro, a, lin::Matrix::identity(12)).ok);

  // Row sums over a split of the rows combine to the whole-matrix check.
  const std::vector<perfbench::RowSums> parts = {
      perfbench::row_sums(a, qr.q, qr.r, 0, 100),
      perfbench::row_sums(a, qr.q, qr.r, 100, 57),
      perfbench::row_sums(a, qr.q, qr.r, 157, 143)};
  auto split = perfbench::finish_check(parts, qr.r, 300, fro);
  EXPECT(split.ok && std::abs(split.orth_err - good.orth_err) < 1e-15 &&
         std::abs(split.resid_err - good.resid_err) < 1e-15);

  const perfbench::Bounds b = perfbench::cqr2_bounds(32768, 64);
  EXPECT(b.orth > 1e-9 && b.orth < 2e-9 && b.resid > 2e-11 && b.resid < 3e-11);
}

}  // namespace

int main() {
  test_median();
  test_tail();
  test_tally();
  test_usage();
  test_steal();
  test_check();
  if (failures != 0) {
    std::printf("%d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all passed\n");
  return 0;
}
