/// \file test_service.cpp
/// \brief FactorizeService contracts: results through the service are
///        bitwise identical to standalone runs, compatible small panels
///        micro-batch, admission past queue_depth rejects deterministically,
///        a failing job never poisons its neighbors, priority/FIFO order is
///        observable, packing arenas stop growing after warmup, and
///        shutdown drains every admitted job.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "cacqr/core/batched.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/serve/service.hpp"
#include "cacqr/support/error.hpp"
#include "cacqr/support/rng.hpp"

namespace cacqr::serve {
namespace {

struct Ref {
  lin::Matrix q;
  lin::Matrix r;
};

/// Standalone reference factors: a batch of one on a fresh world of the
/// same width the services below use.  Computed before a service exists
/// so the two runtimes never overlap.  Rank 0 publishes Q then R: under a
/// process transport the body runs in a forked child, so the published
/// blob is the only way its factors reach this caller.
Ref standalone(const lin::Matrix& a, core::BatchedOptions opts = {}) {
  const rt::RunOutput out = rt::Runtime::run_collect(4, [&](rt::Comm& world) {
    const lin::ConstMatrixView panels[1] = {a};
    const std::vector<core::BatchedItem> items =
        core::factorize_batched(panels, world, opts);
    if (world.rank() == 0) {
      const core::BatchedItem& item = items.front();
      world.publish({item.q.data(), static_cast<std::size_t>(item.q.size())});
      world.publish({item.r.data(), static_cast<std::size_t>(item.r.size())});
    }
  });
  Ref ref{lin::Matrix(a.rows(), a.cols()), lin::Matrix(a.cols(), a.cols())};
  const std::vector<double>& blob = out.published.front();
  if (blob.size() !=
      static_cast<std::size_t>(ref.q.size() + ref.r.size())) {
    ADD_FAILURE() << "standalone: rank 0 published " << blob.size()
                  << " doubles";
    return {};
  }
  std::copy(blob.begin(), blob.begin() + ref.q.size(), ref.q.data());
  std::copy(blob.begin() + ref.q.size(), blob.end(), ref.r.data());
  return ref;
}

/// Spins until the job leaves the admission queue (the scheduler stamped
/// it running, so the engine is busy inside that round and cannot pop
/// anything we enqueue until the round ends).
void wait_running(const JobHandle& h) {
  while (h.status() == JobStatus::queued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A job big enough to keep the engine inside its round for the few
/// microseconds the tests need to stage the admission queue behind it.
lin::Matrix blocker_panel() { return lin::hashed_matrix(300, 2048, 96); }

TEST(ServiceTest, JobsComeBackBitwiseIdenticalToStandalone) {
  const lin::Matrix a0 = lin::hashed_matrix(301, 96, 8);
  const lin::Matrix a1 = lin::hashed_matrix(302, 160, 16);
  const Ref r0 = standalone(a0);
  const Ref r1 = standalone(a1);

  FactorizeService svc({.ranks = 4});
  const JobHandle h0 = svc.submit(a0);
  const JobHandle h1 = svc.submit(a1);
  EXPECT_EQ(h0.wait(), JobStatus::done);
  EXPECT_EQ(h1.wait(), JobStatus::done);
  EXPECT_EQ(h0.result().algo, "ca_cqr");
  EXPECT_FALSE(h0.result().used_shift);
  EXPECT_GE(h0.result().exec_seconds, 0.0);
  EXPECT_EQ(lin::max_abs_diff(h0.result().q, r0.q), 0.0);
  EXPECT_EQ(lin::max_abs_diff(h0.result().r, r0.r), 0.0);
  EXPECT_EQ(lin::max_abs_diff(h1.result().q, r1.q), 0.0);
  EXPECT_EQ(lin::max_abs_diff(h1.result().r, r1.r), 0.0);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.rejected, 0u);
}

TEST(ServiceTest, IneligibleShapesRunTheOrdinaryDriver) {
  // cols past batch_max_n: the ordinary factorize driver (heuristic CA
  // grid), never the batched lane.
  const lin::Matrix a = lin::hashed_matrix(303, 256, 80);
  FactorizeService svc({.ranks = 4});
  const JobHandle h = svc.submit(a);
  EXPECT_EQ(h.wait(), JobStatus::done);
  EXPECT_FALSE(h.result().batched);
  EXPECT_EQ(h.result().batch_size, 1u);
  EXPECT_EQ(h.result().algo, "ca_cqr");
  EXPECT_LT(lin::orthogonality_error(h.result().q), 1e-12);
  EXPECT_LT(lin::residual_error(a, h.result().q, h.result().r), 1e-12);
}

TEST(ServiceTest, CompatibleJobsMicroBatchAndStayBitwise) {
  const lin::Matrix a0 = lin::hashed_matrix(304, 96, 8);
  const lin::Matrix a1 = lin::hashed_matrix(305, 96, 8);
  const lin::Matrix a2 = lin::hashed_matrix(306, 96, 8);
  const Ref refs[3] = {standalone(a0), standalone(a1), standalone(a2)};

  FactorizeService svc({.ranks = 4, .queue_depth = 16, .batch_window = 8});
  const JobHandle blocker = svc.submit(blocker_panel());
  wait_running(blocker);
  // base_case is no batch key: the lane's c = 1 grid ignores it.
  const JobHandle jobs[3] = {svc.submit(a0), svc.submit(a1, {.base_case = 2}),
                             svc.submit(a2)};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(jobs[i].wait(), JobStatus::done);
    EXPECT_TRUE(jobs[i].result().batched) << "job " << i;
    EXPECT_EQ(jobs[i].result().batch_size, 3u) << "job " << i;
    EXPECT_EQ(lin::max_abs_diff(jobs[i].result().q, refs[i].q), 0.0)
        << "job " << i;
    EXPECT_EQ(lin::max_abs_diff(jobs[i].result().r, refs[i].r), 0.0)
        << "job " << i;
  }
  EXPECT_EQ(blocker.wait(), JobStatus::done);

  const ServiceStats st = svc.stats();
  EXPECT_GE(st.batches, 1u);
  EXPECT_EQ(st.batched_jobs, 3u);
}

TEST(ServiceTest, BatchingOffRunsEveryJobAlone) {
  const lin::Matrix a = lin::hashed_matrix(307, 96, 8);
  FactorizeService svc({.ranks = 4, .queue_depth = 16, .batching = false});
  const JobHandle blocker = svc.submit(blocker_panel());
  wait_running(blocker);
  const JobHandle h0 = svc.submit(a);
  const JobHandle h1 = svc.submit(a);
  EXPECT_EQ(h0.wait(), JobStatus::done);
  EXPECT_EQ(h1.wait(), JobStatus::done);
  EXPECT_FALSE(h0.result().batched);
  EXPECT_FALSE(h1.result().batched);
  EXPECT_EQ(svc.stats().batches, 0u);
  // Bitwise invariant either way: the batched lane is the same stacked
  // driver at batch size one.
  const JobHandle h0b = svc.submit(a);
  EXPECT_EQ(h0b.wait(), JobStatus::done);
  EXPECT_EQ(lin::max_abs_diff(h0.result().q, h0b.result().q), 0.0);
}

TEST(ServiceTest, HigherPriorityClassDrainsFirst) {
  const lin::Matrix a = lin::hashed_matrix(308, 96, 8);
  FactorizeService svc({.ranks = 4, .queue_depth = 16});
  const JobHandle blocker = svc.submit(blocker_panel());
  wait_running(blocker);
  const JobHandle low = svc.submit(a, {.priority = Priority::low});
  const JobHandle high = svc.submit(a, {.priority = Priority::high});
  // Strict class order: high rides the round after the blocker, low the
  // one after -- so when low is done, high must long since be.
  EXPECT_EQ(low.wait(), JobStatus::done);
  EXPECT_EQ(high.status(), JobStatus::done);
}

TEST(ServiceTest, FifoWithinAClass) {
  FactorizeService svc({.ranks = 4, .queue_depth = 16, .batching = false});
  const JobHandle blocker = svc.submit(blocker_panel());
  wait_running(blocker);
  const JobHandle first = svc.submit(lin::hashed_matrix(309, 64, 8));
  const JobHandle second = svc.submit(lin::hashed_matrix(310, 96, 16));
  EXPECT_EQ(second.wait(), JobStatus::done);
  EXPECT_EQ(first.status(), JobStatus::done);  // admission order held
}

TEST(ServiceTest, QueueFullRejectsDeterministically) {
  const lin::Matrix a = lin::hashed_matrix(311, 96, 8);
  FactorizeService svc({.ranks = 4, .queue_depth = 3, .batching = false});
  const JobHandle blocker = svc.submit(blocker_panel());
  wait_running(blocker);
  // The engine is pinned inside the blocker's round: exactly queue_depth
  // admissions fit, and the next submit must come back already rejected.
  std::vector<JobHandle> admitted;
  for (int i = 0; i < 3; ++i) admitted.push_back(svc.submit(a));
  const JobHandle overflow = svc.submit(a);
  EXPECT_EQ(overflow.status(), JobStatus::rejected);
  EXPECT_EQ(overflow.wait(), JobStatus::rejected);
  EXPECT_THROW((void)overflow.result(), Error);
  EXPECT_TRUE(overflow.error() != nullptr);
  for (JobHandle& h : admitted) EXPECT_EQ(h.wait(), JobStatus::done);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.submitted, 4u);  // blocker + the three admitted
  EXPECT_EQ(st.max_queue_depth, 3u);
}

TEST(ServiceTest, FailingJobDoesNotPoisonQueueOrBatchMates) {
  Rng rng(312);
  const lin::Matrix bad = lin::with_cond(rng, 64, 8, 1e11);
  const lin::Matrix good = lin::hashed_matrix(313, 64, 8);
  const Ref ref = standalone(good);

  FactorizeService svc({.ranks = 4, .queue_depth = 16});
  const JobHandle blocker = svc.submit(blocker_panel());
  wait_running(blocker);
  // Same shape and options apart from auto_shift?  No: auto_shift is part
  // of the batch key, so force the failing job INTO the batch by sharing
  // all key fields -- every job here runs with auto_shift off, and only
  // the ill-conditioned panel breaks down.
  const JobOptions opts{.auto_shift = false};
  const JobHandle g0 = svc.submit(good, opts);
  const JobHandle b = svc.submit(bad, opts);
  const JobHandle g1 = svc.submit(good, opts);

  EXPECT_EQ(b.wait(), JobStatus::failed);
  EXPECT_THROW((void)b.result(), NotSpdError);
  for (const JobHandle& h : {g0, g1}) {
    EXPECT_EQ(h.wait(), JobStatus::done);
    EXPECT_EQ(lin::max_abs_diff(h.result().q, ref.q), 0.0);
    EXPECT_EQ(lin::max_abs_diff(h.result().r, ref.r), 0.0);
  }
  // The engine survives: a job submitted after the failure completes.
  const JobHandle after = svc.submit(good);
  EXPECT_EQ(after.wait(), JobStatus::done);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 4u);  // blocker, g0, g1, after
}

TEST(ServiceTest, ArenasStopGrowingAfterWarmup) {
  // Satellite contract: the persistent engine pays packing-arena growth
  // on the first job of a shape and never again -- visible per rank lane
  // through the task-group attribution.
  const lin::Matrix a = lin::hashed_matrix(314, 512, 48);
  FactorizeService svc({.ranks = 4});
  EXPECT_EQ(svc.submit(a).wait(), JobStatus::done);  // warmup

  const auto group_allocations = [&] {
    i64 total = 0;
    for (int r = 0; r < svc.options().ranks; ++r) {
      total += lin::kernel::arena_stats(svc.arena_group(r)).allocations;
    }
    return total;
  };
  const i64 warm = group_allocations();
  EXPECT_GT(warm, 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(svc.submit(a).wait(), JobStatus::done);
  }
  EXPECT_EQ(group_allocations(), warm)
      << "packing arenas grew on a repeat of an already-warm shape";
}

TEST(ServiceTest, ShutdownDrainsEveryAdmittedJob) {
  const lin::Matrix a = lin::hashed_matrix(315, 96, 8);
  FactorizeService svc({.ranks = 4, .queue_depth = 16});
  std::vector<JobHandle> handles;
  for (int i = 0; i < 5; ++i) handles.push_back(svc.submit(a));
  svc.shutdown();
  for (JobHandle& h : handles) EXPECT_EQ(h.wait(), JobStatus::done);
  EXPECT_THROW((void)svc.submit(a), Error);
  svc.shutdown();  // idempotent
}

}  // namespace
}  // namespace cacqr::serve
