/// \file test_driver_identity.cpp
/// \brief The replicated driver adds nothing but data movement to the
///        algorithm: core::factorize returns, bit for bit, the stripped
///        dist::gather of ca_cqr2 run on the explicitly padded panel (and,
///        on the c = 1 grid, what factorize_batched returns for a batch of
///        one), and charges exactly the per-rank msgs, words, flops and
///        modeled clock pinned below.  The pinned counters were recorded from the
///        driver that still copied every panel and gathered through fresh
///        buffers, so buffer reuse and the no-copy paths must not move a
///        single charge.  Runs over whichever transport CACQR_TRANSPORT
///        selects (the shm CI pass re-runs it over forked ranks).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "cacqr/core/batched.hpp"
#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/grid/grid.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/rt/comm.hpp"

namespace cacqr::core {
namespace {

using dist::DistMatrix;

/// Distinct alpha/beta/gamma, so the pinned clock is a real constraint.
constexpr rt::Machine kMachine{1e-6, 1e-9, 1e-11};

struct Shape {
  const char* name;
  int p;
  i64 m;
  i64 n;
  int c;  ///< explicit grid; 0 = the heuristic choose_grid
  int d;
};

constexpr Shape kShapes[] = {
    {"4096x64_p4", 4, 4096, 64, 0, 0},  // no padding
    {"1001x13_p4", 4, 1001, 13, 0, 0},  // zero rows to a multiple of d
    {"50x7_p8_c2", 8, 50, 7, 2, 2},     // a delta column to a multiple of c
};

struct OverlapGuard {
  bool saved = rt::overlap_enabled();
  ~OverlapGuard() { rt::set_overlap_enabled(saved); }
};

lin::Matrix input(const Shape& s) { return lin::hashed_matrix(121, s.m, s.n); }

std::pair<int, int> grid_of(const Shape& s) {
  return s.c != 0 ? std::pair<int, int>{s.c, s.d}
                  : choose_grid(s.p, s.m, s.n);
}

/// The padding contract written out by hand (factorize.hpp): columns to a
/// multiple of c with delta = ||A||_F / sqrt(n) down a shifted diagonal,
/// rows to a multiple of d with zeros, keeping m_pad >= n_pad.
lin::Matrix explicit_pad(const lin::Matrix& a, int c, int d) {
  const i64 m = a.rows();
  const i64 n = a.cols();
  const i64 n_pad = round_up(n, c);
  const i64 m_pad = round_up(std::max(m + (n_pad - n), n_pad), d);
  lin::Matrix out(m_pad, n_pad);
  lin::copy(a, out.sub(0, 0, m, n));
  const double delta = lin::frob_norm(a) / std::sqrt(static_cast<double>(n));
  for (i64 j = n; j < n_pad; ++j) out(m + (j - n), j) = delta;
  return out;
}

bool bitwise_equal(const lin::Matrix& got, lin::ConstMatrixView want) {
  const lin::Matrix w = lin::materialize(want);
  return got.rows() == w.rows() && got.cols() == w.cols() &&
         std::memcmp(got.data(), w.data(),
                     static_cast<std::size_t>(w.size()) * sizeof(double)) ==
             0;
}

/// Runs factorize, then the explicit-padding reference, on every rank of
/// one run.  Each rank compares the two bit for bit and publishes the
/// charges of the factorize call alone: it runs first, so the rank's
/// counters right after it are the call's own.
rt::RunOutput run_case(const Shape& s, Precision prec) {
  return rt::Runtime::run_collect(
      s.p,
      [&](rt::Comm& world) {
        const lin::Matrix a = input(s);
        const FactorizeResult res =
            factorize(a, world, {.c = s.c, .d = s.d, .precision = prec});
        const rt::CostCounters charged = world.counters();
        const double charges[] = {static_cast<double>(charged.msgs),
                                  static_cast<double>(charged.words),
                                  static_cast<double>(charged.flops),
                                  charged.time};
        world.publish(charges);

        const auto [c, d] = grid_of(s);
        const lin::Matrix padded = explicit_pad(a, c, d);
        grid::TunableGrid g(world, c, d);
        const DistMatrix da = DistMatrix::from_global_on_tunable(padded, g);
        const CaCqrResult fact = ca_cqr2(da, g, {.precision = prec});
        const lin::Matrix q = dist::gather(fact.q, g.slice());
        const lin::Matrix r = dist::gather(fact.r, g.subcube().slice());
        EXPECT_TRUE(bitwise_equal(res.q, q.sub(0, 0, s.m, s.n)))
            << "rank " << world.rank() << ": Q differs from the reference";
        EXPECT_TRUE(bitwise_equal(res.r, r.sub(0, 0, s.n, s.n)))
            << "rank " << world.rank() << ": R differs from the reference";

        // At c = 1 the batched sweep runs the same 1D pass.
        if (c == 1) {
          const lin::ConstMatrixView panels[1] = {a};
          const std::vector<BatchedItem> items =
              factorize_batched(panels, world, {.precision = prec});
          EXPECT_TRUE(items.front().ok);
          EXPECT_FALSE(items.front().used_shift);
          EXPECT_TRUE(bitwise_equal(items.front().q, res.q))
              << "rank " << world.rank() << ": batched Q differs";
          EXPECT_TRUE(bitwise_equal(items.front().r, res.r))
              << "rank " << world.rank() << ": batched R differs";
        }
      },
      kMachine);
}

/// One rank's pinned charges for a whole factorize call.
struct Charge {
  i64 msgs;
  i64 words;
  i64 flops;
  double time;
};

struct Pinned {
  const char* shape;
  Precision prec;
  std::vector<Charge> ranks;
};

// Recorded from the copying driver (see the file comment) with overlap
// off, identical at worker budgets 1 and 4 and over the modeled and shm
// transports.
const std::vector<Pinned>& pinned() {
  static const std::vector<Pinned> table = {
      {"4096x64_p4", Precision::fp64,
       {{24, 208938, 17680722, 0x1.ada6251d0cd78p-12},
        {24, 208938, 17680722, 0x1.ada6251d0cd78p-12},
        {24, 208938, 17680722, 0x1.ada6251d0cd78p-12},
        {24, 208938, 17680722, 0x1.ada6251d0cd78p-12}}},
      {"4096x64_p4", Precision::mixed,
       {{24, 205866, 17680722, 0x1.aa6d82e1858f4p-12},
        {24, 205866, 17680722, 0x1.aa6d82e1858f4p-12},
        {24, 205866, 17680722, 0x1.aa6d82e1858f4p-12},
        {24, 205866, 17680722, 0x1.aa6d82e1858f4p-12}}},
      {"4096x64_p4", Precision::fp32,
       {{24, 202794, 17680722, 0x1.a734e0a5fe471p-12},
        {24, 202794, 17680722, 0x1.a734e0a5fe471p-12},
        {24, 202794, 17680722, 0x1.a734e0a5fe471p-12},
        {24, 202794, 17680722, 0x1.a734e0a5fe471p-12}}},
      {"1001x13_p4", Precision::fp64,
       {{24, 10339, 189374, 0x1.2ff9ce7dc8f9p-15},
        {24, 10337, 189374, 0x1.2ff9ce7dc8f9p-15},
        {24, 10337, 189374, 0x1.2ff9ce7dc8f9p-15},
        {24, 10339, 189374, 0x1.2ff9ce7dc8f9p-15}}},
      {"1001x13_p4", Precision::mixed,
       {{24, 10213, 189374, 0x1.2eeb394240955p-15},
        {24, 10211, 189374, 0x1.2eeb394240955p-15},
        {24, 10211, 189374, 0x1.2eeb394240955p-15},
        {24, 10213, 189374, 0x1.2eeb394240955p-15}}},
      {"1001x13_p4", Precision::fp32,
       {{24, 10087, 189374, 0x1.2ddca406b831ap-15},
        {24, 10085, 189374, 0x1.2ddca406b831ap-15},
        {24, 10085, 189374, 0x1.2ddca406b831ap-15},
        {24, 10087, 189374, 0x1.2ddca406b831ap-15}}},
      {"50x7_p8_c2", Precision::fp64,
       {{227, 1450, 3800, 0x1.e384f51ccd166p-13},
        {214, 1290, 3800, 0x1.e384f51ccd166p-13},
        {214, 1466, 3800, 0x1.e384f51ccd166p-13},
        {169, 1130, 3800, 0x1.e384f51ccd166p-13},
        {169, 1130, 3800, 0x1.e384f51ccd166p-13},
        {214, 1466, 3800, 0x1.e384f51ccd166p-13},
        {214, 1290, 3800, 0x1.e384f51ccd166p-13},
        {227, 1450, 3800, 0x1.e384f51ccd166p-13}}},
      {"50x7_p8_c2", Precision::mixed,
       {{227, 1382, 3800, 0x1.e36073437fc3dp-13},
        {214, 1248, 3800, 0x1.e36073437fc3dp-13},
        {214, 1402, 3800, 0x1.e36073437fc3dp-13},
        {169, 1092, 3800, 0x1.e36073437fc3dp-13},
        {169, 1092, 3800, 0x1.e36073437fc3dp-13},
        {214, 1402, 3800, 0x1.e36073437fc3dp-13},
        {214, 1248, 3800, 0x1.e36073437fc3dp-13},
        {227, 1382, 3800, 0x1.e36073437fc3dp-13}}},
      {"50x7_p8_c2", Precision::fp32,
       {{227, 1314, 3800, 0x1.e33bf16a32717p-13},
        {214, 1206, 3800, 0x1.e33bf16a32717p-13},
        {214, 1338, 3800, 0x1.e33bf16a32717p-13},
        {169, 1054, 3800, 0x1.e33bf16a32717p-13},
        {169, 1054, 3800, 0x1.e33bf16a32717p-13},
        {214, 1338, 3800, 0x1.e33bf16a32717p-13},
        {214, 1206, 3800, 0x1.e33bf16a32717p-13},
        {227, 1314, 3800, 0x1.e33bf16a32717p-13}}},
  };
  return table;
}

const Pinned* find_pinned(const Shape& s, Precision prec) {
  for (const Pinned& p : pinned()) {
    if (std::strcmp(p.shape, s.name) == 0 && p.prec == prec) return &p;
  }
  return nullptr;
}

class DriverIdentity
    : public ::testing::TestWithParam<std::tuple<int, Precision, bool>> {};

TEST_P(DriverIdentity, FactorsAndChargesMatchExplicitPadding) {
  const auto [shape_index, prec, overlap] = GetParam();
  const Shape& s = kShapes[shape_index];
  OverlapGuard guard;
  rt::set_overlap_enabled(overlap);
  const rt::RunOutput out = run_case(s, prec);

  const Pinned* pin = find_pinned(s, prec);
  ASSERT_NE(pin, nullptr) << "no pinned charges for " << s.name;
  ASSERT_EQ(pin->ranks.size(), out.published.size());
  // With overlap on and c > 1, flop drains interleave with receives as
  // messages happen to arrive, so only the raw tallies are fixed there
  // (RequestTest.ConcurrentRequestsKeepRawTallies).
  const bool clock_fixed = !overlap || grid_of(s).first == 1;
  for (int r = 0; r < s.p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const std::vector<double>& got = out.published[i];
    ASSERT_EQ(got.size(), 4u) << "rank " << r;
    const Charge& want = pin->ranks[i];
    EXPECT_EQ(static_cast<i64>(got[0]), want.msgs) << "rank " << r;
    EXPECT_EQ(static_cast<i64>(got[1]), want.words) << "rank " << r;
    EXPECT_EQ(static_cast<i64>(got[2]), want.flops) << "rank " << r;
    if (clock_fixed) {
      EXPECT_EQ(got[3], want.time) << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DriverIdentity,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(Precision::fp64, Precision::mixed,
                                         Precision::fp32),
                       ::testing::Bool()),
    [](const auto& info) {
      const Precision prec = std::get<1>(info.param);
      return std::string(kShapes[std::get<0>(info.param)].name) + "_" +
             (prec == Precision::fp64    ? "fp64"
              : prec == Precision::mixed ? "mixed"
                                         : "fp32") +
             (std::get<2>(info.param) ? "_overlap" : "_plain");
    });

}  // namespace
}  // namespace cacqr::core
