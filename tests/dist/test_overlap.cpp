/// \file test_overlap.cpp
/// \brief Communication/computation overlap must be invisible in results
///        and raw cost tallies.
///
/// The dist/ and core/ hot paths reorder local staging work relative to
/// in-flight collectives when rt::overlap_enabled() -- but the collective
/// schedules, the one-owner local stages, and the floating-point operation
/// order per output element are unchanged, so overlap on and off must be
/// BITWISE identical per rank, at worker budgets 1 and 4 (the acceptance
/// pair CI runs), and must charge identical msgs/words/flops.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/support/rng.hpp"

namespace cacqr::dist {
namespace {

/// Restores the process-wide overlap flag on scope exit.
struct OverlapGuard {
  explicit OverlapGuard(bool on) : prev(rt::overlap_enabled()) {
    rt::set_overlap_enabled(on);
  }
  ~OverlapGuard() { rt::set_overlap_enabled(prev); }
  OverlapGuard(const OverlapGuard&) = delete;
  OverlapGuard& operator=(const OverlapGuard&) = delete;
  bool prev;
};

bool blobs_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct StageRun {
  std::vector<std::vector<double>> blocks;  ///< published per rank: dims+data
  std::vector<rt::CostCounters> counters;
};

StageRun run_stage(int p, int threads_per_rank, bool overlap,
                   const std::function<lin::Matrix(rt::Comm&)>& stage) {
  OverlapGuard guard(overlap);
  rt::RunOutput out = rt::Runtime::run_collect(
      p,
      [&](rt::Comm& world) {
        const lin::Matrix block = stage(world);
        const double dims[] = {static_cast<double>(block.rows()),
                               static_cast<double>(block.cols())};
        world.publish(dims);
        world.publish(std::span<const double>(
            block.data(), static_cast<std::size_t>(block.size())));
      },
      rt::Machine::counting(), threads_per_rank);
  return {std::move(out.published), std::move(out.counters)};
}

/// The load-bearing assertion: overlap on vs off yields byte-identical
/// per-rank outputs and identical raw msgs/words/flops tallies, at worker
/// budgets 1 and 4.
void expect_overlap_invisible(
    int p, const std::function<lin::Matrix(rt::Comm&)>& stage) {
  for (const int threads : {1, 4}) {
    const StageRun off = run_stage(p, threads, false, stage);
    const StageRun on = run_stage(p, threads, true, stage);
    for (int r = 0; r < p; ++r) {
      const auto i = static_cast<std::size_t>(r);
      EXPECT_TRUE(blobs_equal(off.blocks[i], on.blocks[i]))
          << "rank " << r << " threads " << threads;
      EXPECT_EQ(off.counters[i].msgs, on.counters[i].msgs) << "rank " << r;
      EXPECT_EQ(off.counters[i].words, on.counters[i].words) << "rank " << r;
      EXPECT_EQ(off.counters[i].flops, on.counters[i].flops) << "rank " << r;
    }
  }
}

TEST(OverlapIdentity, Mm3dStagedBroadcasts) {
  expect_overlap_invisible(8, [](rt::Comm& world) {
    grid::CubeGrid g(world, 2);
    const lin::Matrix a = lin::hashed_matrix(401, 256, 256);
    const lin::Matrix b = lin::hashed_matrix(402, 256, 256);
    auto da = DistMatrix::from_global_on_cube(a, g);
    auto db = DistMatrix::from_global_on_cube(b, g);
    return mm3d(da, db, g).local();
  });
}

TEST(OverlapIdentity, Transpose3dExchange) {
  expect_overlap_invisible(8, [](rt::Comm& world) {
    grid::CubeGrid g(world, 2);
    const lin::Matrix a = lin::hashed_matrix(403, 256, 256);
    auto da = DistMatrix::from_global_on_cube(a, g);
    return transpose3d(da, g).local();
  });
}

TEST(OverlapIdentity, BlockBacksolveComposite) {
  // Exercises repeated overlapped mm3d calls (and the sub_block copies)
  // inside one primitive.
  expect_overlap_invisible(8, [](rt::Comm& world) {
    grid::CubeGrid g(world, 2);
    const lin::Matrix b = lin::hashed_matrix(404, 128, 64);
    // Any operand data exercises the overlapped mm3d/add_scaled stages;
    // block_backsolve at nblocks == 2 only multiplies by the given blocks.
    const lin::Matrix r = lin::hashed_matrix(405, 64, 64);
    auto db = DistMatrix::from_global_on_cube(b, g);
    auto dr = DistMatrix::from_global_on_cube(r, g);
    return block_backsolve(db, dr, dr, 2, g).local();
  });
}

TEST(OverlapIdentity, BlockBacksolvePipelinedAcrossIterations) {
  // nblocks >= 3 engages the cross-iteration mm3d pipeline: iteration
  // j+1's first broadcasts start while iteration j's final multiply and
  // add_scaled are still in flight, and inner product (j, i+1) starts
  // under (j, i)'s accumulate.  Schedule changes only; the bits and the
  // raw tallies must not move.
  expect_overlap_invisible(8, [](rt::Comm& world) {
    grid::CubeGrid g(world, 2);
    const lin::Matrix b = lin::hashed_matrix(409, 128, 128);
    const lin::Matrix r = lin::hashed_matrix(410, 128, 128);
    auto db = DistMatrix::from_global_on_cube(b, g);
    auto dr = DistMatrix::from_global_on_cube(r, g);
    return block_backsolve(db, dr, dr, 4, g).local();
  });
}

TEST(OverlapIdentity, Cqr1dEndToEnd) {
  expect_overlap_invisible(4, [](rt::Comm& world) {
    Rng rng(406);
    const lin::Matrix a = lin::with_cond(rng, 512, 96, 10.0);
    grid::TunableGrid g(world, 1, world.size());
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto qr = core::ca_cqr(da, g);
    // Fold Q and R into one block so both factors are asserted.
    const lin::Matrix& r = qr.r.local();
    lin::Matrix out(qr.q.local().rows() + r.rows(), r.cols());
    lin::copy(qr.q.local(), out.sub(0, 0, qr.q.local().rows(), r.cols()));
    lin::copy(r, out.sub(qr.q.local().rows(), 0, r.rows(), r.cols()));
    return out;
  });
}

TEST(OverlapIdentity, CaCqr2EndToEnd) {
  expect_overlap_invisible(8, [](rt::Comm& world) {
    grid::TunableGrid g(world, 2, 2);
    Rng rng(407);
    const lin::Matrix a = lin::with_cond(rng, 256, 64, 5.0);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto qr = core::ca_cqr2(da, g);
    lin::Matrix out(qr.q.local().rows() + qr.r.local().rows(),
                    qr.q.local().cols());
    lin::copy(qr.q.local(),
              out.sub(0, 0, qr.q.local().rows(), qr.q.local().cols()));
    lin::copy(qr.r.local(), out.sub(qr.q.local().rows(), 0,
                                    qr.r.local().rows(), qr.r.local().cols()));
    return out;
  });
}

TEST(OverlapIdentity, CaGramStartedAllreduce) {
  expect_overlap_invisible(8, [](rt::Comm& world) {
    grid::TunableGrid g(world, 2, 2);
    const lin::Matrix a = lin::hashed_matrix(408, 256, 64);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    return core::ca_gram(da, g).local();
  });
}

}  // namespace
}  // namespace cacqr::dist
