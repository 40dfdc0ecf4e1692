/// \file test_transport_e2e.cpp
/// \brief End-to-end factorization conformance across transports: the
///        1D pass (ca_cqr at c = 1) and ca_cqr2 must produce bitwise-identical per-rank Q and R
///        under the modeled (threads) and shm (forked processes)
///        backends, across the worker-budget {1, 4} x overlap {off, on}
///        acceptance matrix.  One-owner local stages, fixed collective
///        schedules, and backend-independent delivery compose into
///        whole-factorization determinism.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/rt/comm.hpp"

namespace cacqr::core {
namespace {

using dist::DistMatrix;

#if defined(__SANITIZE_THREAD__)
#define CACQR_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CACQR_TSAN 1
#endif
#endif

bool shm_testable() {
#if defined(CACQR_TSAN)
  return false;
#else
  return rt::transport_available(rt::TransportKind::shm);
#endif
}

struct OverlapGuard {
  bool saved = rt::overlap_enabled();
  ~OverlapGuard() { rt::set_overlap_enabled(saved); }
};

void publish_matrix(rt::Comm& world, const lin::Matrix& m) {
  const double dims[] = {static_cast<double>(m.rows()),
                         static_cast<double>(m.cols())};
  world.publish(dims);
  world.publish(std::span<const double>(
      m.data(), static_cast<std::size_t>(m.size())));
}

/// Runs `body` (which publishes its factors) on p ranks over `kind` with
/// the given worker budget and overlap setting; returns the per-rank
/// published blobs.
std::vector<std::vector<double>> run_case(
    int p, int budget, bool overlap, rt::TransportKind kind,
    const std::function<void(rt::Comm&)>& body) {
  OverlapGuard guard;
  rt::set_overlap_enabled(overlap);
  rt::RunOutput out = rt::Runtime::run_collect(
      p, body, rt::Machine::counting(), budget, kind);
  return std::move(out.published);
}

/// The acceptance matrix: for budgets {1, 4} x overlap {off, on}, the
/// shm run's per-rank factors must be byte-identical to the modeled run
/// of the SAME configuration.
void expect_e2e_conformant(int p, const std::function<void(rt::Comm&)>& body) {
  if (!shm_testable()) GTEST_SKIP() << "shm transport not testable here";
  for (const int budget : {1, 4}) {
    for (const bool overlap : {false, true}) {
      const auto modeled =
          run_case(p, budget, overlap, rt::TransportKind::modeled, body);
      const auto shm =
          run_case(p, budget, overlap, rt::TransportKind::shm, body);
      ASSERT_EQ(modeled.size(), shm.size());
      for (int r = 0; r < p; ++r) {
        const auto i = static_cast<std::size_t>(r);
        ASSERT_EQ(modeled[i].size(), shm[i].size())
            << "rank " << r << " t=" << budget << " overlap=" << overlap;
        EXPECT_EQ(0, std::memcmp(modeled[i].data(), shm[i].data(),
                                 modeled[i].size() * sizeof(double)))
            << "rank " << r << " t=" << budget << " overlap=" << overlap;
      }
    }
  }
}

class TransportE2e : public ::testing::TestWithParam<int> {};

TEST_P(TransportE2e, Cqr1dFactorsBitwiseAcrossBackends) {
  const int p = GetParam();
  expect_e2e_conformant(p, [p](rt::Comm& world) {
    grid::TunableGrid g(world, 1, p);
    const lin::Matrix a = lin::hashed_matrix(501, 128 * p, 32);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto res = ca_cqr(da, g);
    publish_matrix(world, res.q.local());
    publish_matrix(world, res.r.local());
  });
}

TEST_P(TransportE2e, Cqr2_1dFactorsBitwiseAcrossBackends) {
  const int p = GetParam();
  expect_e2e_conformant(p, [p](rt::Comm& world) {
    grid::TunableGrid g(world, 1, p);
    const lin::Matrix a = lin::hashed_matrix(502, 96 * p, 24);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto res = ca_cqr2(da, g);
    publish_matrix(world, res.q.local());
    publish_matrix(world, res.r.local());
  });
}

TEST_P(TransportE2e, CaCqr2FactorsBitwiseAcrossBackends) {
  // P = c*c*d with c | d: both rank counts use the c=1 column (P=2 ->
  // (1,2), P=4 -> (1,4)), the deepest-replication shapes at these sizes.
  const int p = GetParam();
  const int c = 1;
  const int d = p;
  expect_e2e_conformant(p, [c, d](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    const lin::Matrix a = lin::hashed_matrix(503, 256, 32);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto res = ca_cqr2(da, g);
    publish_matrix(world, res.q.local());
    publish_matrix(world, res.r.local());
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TransportE2e, ::testing::Values(2, 4));

}  // namespace
}  // namespace cacqr::core
