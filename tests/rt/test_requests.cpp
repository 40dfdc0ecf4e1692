/// \file test_requests.cpp
/// \brief The nonblocking request engine: wait(start_*) must be bit-for-bit
///        the blocking collective (results, msgs/words/flops tallies, AND
///        the modeled clock), concurrent requests must complete out of
///        order (even rank-dependent order) without deadlock, and progress
///        must advance an in-flight collective underneath local work.
///        Large collectives in flight together must not share staging, and
///        repeated factorize calls must not grow the gather's.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/matrix.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/obs/metrics.hpp"
#include "cacqr/rt/comm.hpp"
#include "cacqr/support/rng.hpp"

namespace cacqr::rt {
namespace {

/// Deterministic per-rank payload so every rank can compute the expected
/// reduction/concatenation locally.
std::vector<double> payload(int rank, std::size_t n, u64 salt = 0) {
  std::vector<double> v(n);
  Rng rng(static_cast<u64>(rank) * 1315423911ULL + salt + 1);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Machine with distinct alpha/beta/gamma so clock equality is a real
/// constraint, not 0 == 0.
constexpr Machine kMachine{1e-6, 1e-9, 1e-11};

struct ParityRun {
  std::vector<std::vector<double>> data;  ///< per-rank final buffer
  std::vector<CostCounters> counters;     ///< per-rank final tallies
};

/// Runs `body(comm, data)` on p ranks under kMachine; data starts as the
/// rank's payload.  A small gemm precedes the communication so pending
/// kernel-flop drains interact with the clock exactly as on the real hot
/// paths.  Results come back via Comm::publish so the comparison works on
/// every transport backend.
ParityRun run_p(int p, std::size_t n, u64 salt,
                const std::function<void(Comm&, std::vector<double>&)>& body) {
  RunOutput raw = Runtime::run_collect(
      p,
      [&](Comm& c) {
        lin::Matrix a(8, 8), b(8, 8), prod(8, 8);
        lin::matmul(a, b, prod);  // pending flops drained by the collective
        std::vector<double> data = payload(c.rank(), n, salt);
        body(c, data);
        c.publish(data);
      },
      kMachine);
  return {std::move(raw.published), std::move(raw.counters)};
}

void expect_identical(const ParityRun& blocking, const ParityRun& request,
                      int p) {
  for (int r = 0; r < p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(blocking.data[i], request.data[i]) << "rank " << r;
    EXPECT_EQ(blocking.counters[i].msgs, request.counters[i].msgs)
        << "rank " << r;
    EXPECT_EQ(blocking.counters[i].words, request.counters[i].words)
        << "rank " << r;
    EXPECT_EQ(blocking.counters[i].flops, request.counters[i].flops)
        << "rank " << r;
    // Exact: the request engine executes the identical charge sequence.
    EXPECT_EQ(blocking.counters[i].time, request.counters[i].time)
        << "rank " << r;
  }
}

class RequestParity : public ::testing::TestWithParam<int> {};

TEST_P(RequestParity, BcastWaitStartMatchesBlocking) {
  const int p = GetParam();
  for (const std::size_t n : {std::size_t{1}, std::size_t{17}, std::size_t{256}}) {
    const int root = p / 2;
    auto blocking = run_p(p, n, 71, [&](Comm& c, std::vector<double>& d) {
      c.bcast(d, root);
    });
    auto request = run_p(p, n, 71, [&](Comm& c, std::vector<double>& d) {
      Request r = c.start_bcast(d, root);
      r.wait();
    });
    expect_identical(blocking, request, p);
  }
}

TEST_P(RequestParity, AllreduceWaitStartMatchesBlocking) {
  const int p = GetParam();
  for (const std::size_t n : {std::size_t{1}, std::size_t{13}, std::size_t{200}}) {
    auto blocking = run_p(p, n, 72, [&](Comm& c, std::vector<double>& d) {
      c.allreduce_sum(d);
    });
    auto request = run_p(p, n, 72, [&](Comm& c, std::vector<double>& d) {
      Request r = c.start_allreduce_sum(d);
      r.wait();
    });
    expect_identical(blocking, request, p);
  }
}

TEST_P(RequestParity, AllgatherWaitStartMatchesBlocking) {
  const int p = GetParam();
  const std::size_t n = 37;
  auto gather_body = [&](Comm& c, std::vector<double>& d, bool use_request) {
    std::vector<double> all(n * static_cast<std::size_t>(p));
    if (use_request) {
      Request r = c.start_allgather(d, all);
      r.wait();
    } else {
      c.allgather(d, all);
    }
    d = std::move(all);
  };
  auto blocking = run_p(p, n, 73, [&](Comm& c, std::vector<double>& d) {
    gather_body(c, d, false);
  });
  auto request = run_p(p, n, 73, [&](Comm& c, std::vector<double>& d) {
    gather_body(c, d, true);
  });
  expect_identical(blocking, request, p);
}

TEST_P(RequestParity, SendrecvSwapWaitStartMatchesBlocking) {
  const int p = GetParam();
  const std::size_t n = 50;
  // Pair neighbors; odd p leaves the last rank (and p == 1 everyone)
  // swapping with itself, the documented no-op.
  auto partner_of = [p](int r) {
    const int q = r ^ 1;
    return q < p ? q : r;
  };
  auto blocking = run_p(p, n, 74, [&](Comm& c, std::vector<double>& d) {
    c.sendrecv_swap(partner_of(c.rank()), 9, d);
  });
  auto request = run_p(p, n, 74, [&](Comm& c, std::vector<double>& d) {
    Request r = c.start_sendrecv_swap(partner_of(c.rank()), 9, d);
    r.wait();
  });
  expect_identical(blocking, request, p);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RequestParity,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

TEST(RequestTest, OutOfOrderCompletionSameComm) {
  // Two requests in flight on one communicator, completed in the opposite
  // order they were started.
  const int p = 4;
  Runtime::run(p, [&](Comm& c) {
    std::vector<double> red = payload(c.rank(), 64, 81);
    std::vector<double> bc = c.rank() == 1 ? payload(1, 32, 82)
                                           : std::vector<double>(32, -1.0);
    Request ra = c.start_allreduce_sum(red);
    Request rb = c.start_bcast(bc, 1);
    rb.wait();  // finish the later request first
    ra.wait();

    std::vector<double> expect_red(64, 0.0);
    for (int r = 0; r < p; ++r) {
      auto v = payload(r, 64, 81);
      for (std::size_t i = 0; i < v.size(); ++i) expect_red[i] += v[i];
    }
    for (std::size_t i = 0; i < expect_red.size(); ++i) {
      EXPECT_NEAR(red[i], expect_red[i], 1e-12 * p);
    }
    EXPECT_EQ(bc, payload(1, 32, 82));
  });
}

TEST(RequestTest, RankDependentWaitOrder) {
  // Even ranks wait A then B, odd ranks B then A: a rank blocked on one
  // collective must still drive its share of the other (wait drives all
  // in-flight requests), or this deadlocks.
  const int p = 8;
  Runtime::run(p, [&](Comm& c) {
    std::vector<double> a = payload(c.rank(), 48, 91);
    std::vector<double> b = payload(c.rank(), 48, 92);
    Request ra = c.start_allreduce_sum(a);
    Request rb = c.start_allreduce_sum(b);
    if (c.rank() % 2 == 0) {
      ra.wait();
      rb.wait();
    } else {
      rb.wait();
      ra.wait();
    }
    std::vector<double> ea(48, 0.0), eb(48, 0.0);
    for (int r = 0; r < p; ++r) {
      auto va = payload(r, 48, 91);
      auto vb = payload(r, 48, 92);
      for (std::size_t i = 0; i < 48; ++i) {
        ea[i] += va[i];
        eb[i] += vb[i];
      }
    }
    for (std::size_t i = 0; i < 48; ++i) {
      EXPECT_NEAR(a[i], ea[i], 1e-12 * p);
      EXPECT_NEAR(b[i], eb[i], 1e-12 * p);
    }
  });
}

TEST(RequestTest, ConcurrentRequestsKeepRawTallies) {
  // msgs/words/flops are per-step sums, so completing two collectives
  // through interleaved progress must tally exactly like back-to-back
  // blocking calls (the modeled clock may differ: flop drains interleave
  // with recv stamps differently, which is the documented overlap
  // semantics).
  const int p = 4;
  const std::size_t n = 96;
  auto blocking = run_p(p, n, 101, [&](Comm& c, std::vector<double>& d) {
    std::vector<double> e = payload(c.rank(), n, 102);
    c.allreduce_sum(d);
    c.allreduce_sum(e);
  });
  auto overlapped = run_p(p, n, 101, [&](Comm& c, std::vector<double>& d) {
    std::vector<double> e = payload(c.rank(), n, 102);
    Request ra = c.start_allreduce_sum(d);
    Request rb = c.start_allreduce_sum(e);
    rb.wait();
    ra.wait();
  });
  for (int r = 0; r < p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(blocking.data[i], overlapped.data[i]);
    EXPECT_EQ(blocking.counters[i].msgs, overlapped.counters[i].msgs);
    EXPECT_EQ(blocking.counters[i].words, overlapped.counters[i].words);
    EXPECT_EQ(blocking.counters[i].flops, overlapped.counters[i].flops);
  }
}

TEST(RequestTest, BlockingCollectiveWhileRequestInFlight) {
  // A blocking collective issued between start and wait: its internal
  // wait loop must drive the older request's steps too.
  const int p = 4;
  Runtime::run(p, [&](Comm& c) {
    std::vector<double> a = payload(c.rank(), 40, 111);
    std::vector<double> b = payload(c.rank(), 24, 112);
    Request ra = c.start_allreduce_sum(a);
    c.allreduce_sum(b);  // blocking, younger
    ra.wait();
    std::vector<double> ea(40, 0.0);
    for (int r = 0; r < p; ++r) {
      auto v = payload(r, 40, 111);
      for (std::size_t i = 0; i < 40; ++i) ea[i] += v[i];
    }
    for (std::size_t i = 0; i < 40; ++i) EXPECT_NEAR(a[i], ea[i], 1e-12 * p);
  });
}

TEST(RequestTest, TestPollsToCompletion) {
  const int p = 4;
  Runtime::run(p, [&](Comm& c) {
    std::vector<double> v = {static_cast<double>(c.rank())};
    Request r = c.start_allreduce_sum(v);
    while (!r.test()) {
    }
    EXPECT_DOUBLE_EQ(v[0], 6.0);  // 0+1+2+3
    EXPECT_TRUE(r.test());        // idempotent once done
  });
}

TEST(RequestTest, TestObservesAbort) {
  // A rank polling test() while its partner dies must unwind via
  // AbortError (like a blocked wait), not spin forever on a Recv step
  // that can never be satisfied; the run rethrows the original error.
  EXPECT_THROW(
      Runtime::run(2,
                   [](Comm& c) {
                     if (c.rank() == 1) {
                       throw std::runtime_error("rank 1 failed");
                     }
                     std::vector<double> v(8, 1.0);
                     Request r = c.start_allreduce_sum(v);
                     while (!r.test()) {
                     }
                   }),
      std::runtime_error);
}

TEST(RequestTest, FailedStepPoisonsRequest) {
  // Mismatched bcast payload sizes: the non-root's scatter Recv consumes
  // a wrong-size message and throws CommError.  The poisoned request
  // must not retry the step (the message is gone) and the run surfaces
  // the original error.
  EXPECT_THROW(Runtime::run(2,
                            [](Comm& c) {
                              std::vector<double> v(c.rank() == 0 ? 8 : 6,
                                                    1.0);
                              c.bcast(v, 0);
                            }),
               CommError);
}

TEST(RequestTest, FailedStepWithAnotherRequestInFlight) {
  // The same failure while an unrelated request is in flight: the
  // failing start/wait must unregister its own state (no dangling entry
  // for the destructor drains to chase) and the healthy request still
  // completes during teardown.
  EXPECT_THROW(Runtime::run(2,
                            [](Comm& c) {
                              std::vector<double> ok(16, 1.0);
                              Request r1 = c.start_allreduce_sum(ok);
                              std::vector<double> bad(c.rank() == 0 ? 8 : 6,
                                                      1.0);
                              c.bcast(bad, 0);
                              r1.wait();
                            }),
               CommError);
}

TEST(RequestTest, DroppedRequestCompletesInDestructor) {
  // A handle destroyed without wait() must complete the collective (the
  // partners' schedules depend on our steps).
  const int p = 4;
  Runtime::run(p, [&](Comm& c) {
    std::vector<double> v(16, c.rank() == 2 ? 5.0 : 0.0);
    { Request r = c.start_bcast(v, 2); }
    for (const double x : v) EXPECT_DOUBLE_EQ(x, 5.0);
  });
}

TEST(RequestTest, TrivialRequestsAreImmediatelyDone) {
  Runtime::run(1, [](Comm& c) {
    std::vector<double> v = {1.0};
    Request r = c.start_allreduce_sum(v);
    EXPECT_TRUE(r.valid());
    EXPECT_TRUE(r.test());
    r.wait();
    EXPECT_DOUBLE_EQ(v[0], 1.0);
  });
  Runtime::run(2, [](Comm& c) {
    std::vector<double> empty;
    Request r = c.start_bcast(empty, 0);
    EXPECT_TRUE(r.test());
    Request self = c.start_sendrecv_swap(c.rank(), 3, empty);
    EXPECT_TRUE(self.test());
  });
}

TEST(RequestTest, ProgressScopeAdvancesRequestDuringCopy) {
  // The overlap pattern of the dist/core hot paths: a threaded staging
  // copy between start and wait, with ProgressScope polling in between.
  const int p = 4;
  Runtime::run(
      p,
      [&](Comm& c) {
        std::vector<double> v = payload(c.rank(), 512, 121);
        Request r = c.start_allreduce_sum(v);
        const lin::Matrix src = lin::Matrix::identity(128);
        lin::Matrix dst = lin::Matrix::uninit(128, 128);
        {
          ProgressScope scope(c);
          lin::copy(src, dst);
        }
        r.wait();
        EXPECT_TRUE(src == dst);
        std::vector<double> expect(512, 0.0);
        for (int rr = 0; rr < p; ++rr) {
          auto w = payload(rr, 512, 121);
          for (std::size_t i = 0; i < w.size(); ++i) expect[i] += w[i];
        }
        for (std::size_t i = 0; i < expect.size(); ++i) {
          EXPECT_NEAR(v[i], expect[i], 1e-12 * p);
        }
      },
      Machine::counting(), 4);
}

TEST(RequestTest, RequestsOnSubCommunicators) {
  Runtime::run(8, [](Comm& c) {
    Comm sub = c.split(c.rank() % 2, c.rank());
    std::vector<double> v = {1.0};
    std::vector<double> w = {static_cast<double>(c.rank())};
    Request rs = sub.start_allreduce_sum(v);
    Request rw = c.start_allreduce_sum(w);
    rw.wait();
    rs.wait();
    EXPECT_DOUBLE_EQ(v[0], 4.0);
    EXPECT_DOUBLE_EQ(w[0], 28.0);
  });
}

TEST(RequestTest, LargeAllgathersAndBcastInFlightTogether) {
  // Three large allgathers and a bcast in flight on every rank at once,
  // waited out of order.  Each Bruck schedule runs in place on its own
  // output buffer, so no two may share staging: contents must arrive
  // intact and raw tallies must equal back-to-back blocking calls.
  // P = 4 and 5 take wrap-around (two-segment) steps, and the bcast
  // length is ragged at every P.
  const std::size_t block = std::size_t{1} << 15;
  const std::size_t sizes[3] = {block, block + 3, 2 * block + 1};
  const std::size_t bcast_n = 3 * block + 7;
  for (const int p : {3, 4, 5}) {
    const int root = p - 2;
    auto body = [&](Comm& c, std::vector<double>& d, bool in_flight) {
      std::vector<std::vector<double>> mine(3);
      std::vector<std::vector<double>> all(3);
      for (std::size_t k = 0; k < 3; ++k) {
        mine[k] = payload(c.rank(), sizes[k], 201 + k);
        all[k].assign(sizes[k] * static_cast<std::size_t>(p), -1.0);
      }
      std::vector<double> bc = c.rank() == root
                                   ? payload(root, bcast_n, 204)
                                   : std::vector<double>(bcast_n, -1.0);
      if (in_flight) {
        Request r0 = c.start_allgather(mine[0], all[0]);
        Request rb = c.start_bcast(bc, root);
        Request r1 = c.start_allgather(mine[1], all[1]);
        Request r2 = c.start_allgather(mine[2], all[2]);
        r1.wait();
        rb.wait();
        r2.wait();
        r0.wait();
      } else {
        c.allgather(mine[0], all[0]);
        c.bcast(bc, root);
        c.allgather(mine[1], all[1]);
        c.allgather(mine[2], all[2]);
      }
      for (std::size_t k = 0; k < 3; ++k) {
        for (int r = 0; r < p; ++r) {
          const std::vector<double> want = payload(r, sizes[k], 201 + k);
          EXPECT_TRUE(std::equal(
              want.begin(), want.end(),
              all[k].begin() + static_cast<std::ptrdiff_t>(sizes[k]) * r))
              << "allgather " << k << " chunk " << r << " p=" << p;
        }
      }
      EXPECT_EQ(bc, payload(root, bcast_n, 204)) << "p=" << p;
      d.clear();  // checked in place: too large to publish over shm
    };
    auto blocking = run_p(p, 1, 200, [&](Comm& c, std::vector<double>& d) {
      body(c, d, false);
    });
    auto flying = run_p(p, 1, 200, [&](Comm& c, std::vector<double>& d) {
      body(c, d, true);
    });
    for (int r = 0; r < p; ++r) {
      const auto i = static_cast<std::size_t>(r);
      EXPECT_EQ(blocking.counters[i].msgs, flying.counters[i].msgs);
      EXPECT_EQ(blocking.counters[i].words, flying.counters[i].words);
      EXPECT_EQ(blocking.counters[i].flops, flying.counters[i].flops);
    }
  }
}

TEST(RequestTest, RepeatedFactorizeGrowsNoStaging) {
  // The gather staging grows on the first call of a shape only: later
  // same-shape factorize calls must reuse it, or every call pays fresh
  // page faults again.
  Runtime::run(4, [](Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(131, 4096, 64);
    (void)core::factorize(a, world);
    world.barrier();  // every rank's first-call growth is done
    const obs::Counter& grows =
        obs::Registry::global().counter("dist.staging.allocations");
    const u64 grows0 = grows.value();
    world.barrier();  // nobody grows before every rank has read
    for (int i = 0; i < 3; ++i) (void)core::factorize(a, world);
    world.barrier();
    EXPECT_EQ(grows.value(), grows0);
  });
}

}  // namespace
}  // namespace cacqr::rt
