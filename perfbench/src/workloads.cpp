#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/grid/grid.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/obs/metrics.hpp"
#include "cacqr/rt/comm.hpp"
#include "cacqr/serve/service.hpp"
#include "cacqr/support/rng.hpp"

namespace perfbench {

namespace lin = cacqr::lin;
namespace rt = cacqr::rt;
namespace serve = cacqr::serve;

namespace {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"replicated_driver", Kind::replicated_driver, 4, 1, 0,
       {{32768, 64}}, 1},
      {"distributed_cqr2", Kind::distributed_cqr2, 4, 1, 0,
       {{32768, 64}}, 1},
      {"serve_small_panels", Kind::serve_small_panels, 3, 1, 1,
       {{96, 8}, {128, 8}, {160, 16}, {256, 16}, {512, 32}, {1024, 64}}, 4},
  };
  return specs;
}

/// Ops run untimed between the first (set-up) operation and the window.
constexpr int kWarmupOps = 3;
/// Service client: jobs in flight, and jobs per checked chunk (a whole
/// number of passes over the shape mix).
constexpr std::size_t kOutstanding = 16;
constexpr std::size_t kChunkJobs = 384;
/// A window also ends after this many times its budget of wall time, so
/// a stalled program cannot run the benchmark past its deadline.
constexpr double kWallGuard = 4.0;

/// Pins the calling thread to the index-th CPU this process may use
/// (modulo their count), so each rank thread keeps one CPU for the run.
void pin_to_cpu(int index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (seen++ == index % CPU_COUNT(&allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

/// The two collective workloads: P rank threads, one call in flight.
RunResult run_collective(const WorkloadSpec& spec, const Inputs& inputs,
                         Mode mode, double seconds, SpanLog* spans) {
  const int p = spec.ranks;
  const lin::Matrix& a = inputs.panels.front();
  const double a_fro = inputs.fro.front();
  const bool replicated = spec.kind == Kind::replicated_driver;
  const char* op_name = replicated ? "core.factorize" : "core.ca_cqr2";

  RunResult run;
  Lockstep ls(p);
  // Check state shared by the rank threads: each writes its own slot
  // before a sync, rank 0 reads them all after it.
  std::vector<RowSums> parts(static_cast<std::size_t>(p));
  std::vector<std::string> bad(static_cast<std::size_t>(p));
  const lin::Matrix* q0 = nullptr;  // rank 0's factors, for replica checks
  const lin::Matrix* r0 = nullptr;
  std::vector<double> msgs(static_cast<std::size_t>(p), 0.0);
  std::vector<double> words(static_cast<std::size_t>(p), 0.0);
  bool stop = false;  // written by rank 0 before a sync, read after it

  const double t_start = now_s();
  auto body = [&](rt::Comm& world) {
    const int rank = world.rank();
    const auto r = static_cast<std::size_t>(rank);
    pin_to_cpu(rank);
    std::optional<cacqr::grid::TunableGrid> g;
    std::optional<cacqr::dist::DistMatrix> da;
    if (!replicated) {
      // Distributed once, as a distributed caller holds A (set-up cost).
      g.emplace(world, 1, p);
      da.emplace(cacqr::dist::DistMatrix::from_global_on_tunable(a, *g));
    }
    cacqr::core::FactorizeResult fres;
    cacqr::core::CaCqrResult cres;
    // At c = 1 every rank holds all of R; Q is the rank's cyclic rows.
    const lin::Matrix& q_out = replicated ? fres.q : cres.q.local();
    const lin::Matrix& r_out = replicated ? fres.r : cres.r.local();
    const lin::Matrix& a_rows = replicated ? a : da->local();
    if (rank == 0) {
      q0 = &q_out;
      r0 = &r_out;
    }
    auto op = [&] {
      if (replicated) {
        fres = cacqr::core::factorize(a, world);
      } else {
        cres = cacqr::core::ca_cqr2(*da, *g);
      }
    };
    // Off the clock, after a sync: each rank sums the check over its
    // share of the rows (a quarter of its replicated Q, or its own
    // distributed rows) and compares its replicated factors with rank
    // 0's, bit for bit.
    auto check = [&] {
      bad[r].clear();
      if (q_out.rows() != a_rows.rows() || q_out.cols() != a.cols() ||
          r_out.rows() != a.cols() || r_out.cols() != a.cols()) {
        bad[r] = "shape";
        return;
      }
      const i64 rows = replicated ? a.rows() / p : a_rows.rows();
      parts[r] = row_sums(a_rows, q_out, r_out, replicated ? rank * rows : 0,
                          rows);
      if (rank != 0 && (r_out != *r0 || (replicated && q_out != *q0))) {
        bad[r] = "replica mismatch";
      }
    };
    auto fold_checks = [&] {  // rank 0, after the sync that ends check()
      bool shapes_ok = true;
      for (const std::string& b : bad) shapes_ok = shapes_ok && b != "shape";
      CheckResult v;
      if (shapes_ok) {
        v = finish_check(parts, *r0, a.rows(), a_fro);
      } else {
        v.reason = "shape";
      }
      // One verdict per returned copy: each rank's replicated factors,
      // or the one distributed result.
      for (int c = 0; c < (replicated ? p : 1); ++c) {
        CheckResult mine = v;
        for (int q = 0; q < p; ++q) {
          const std::string& b = bad[static_cast<std::size_t>(q)];
          if (mine.ok && !b.empty() && (!replicated || q == c)) {
            mine.ok = false;
            mine.reason = b;
          }
        }
        record_check(mine, run.tally, run.orth_max, run.resid_max);
      }
    };

    op();
    const double t_first = ls.sync();
    if (rank == 0) run.setup_s = t_first - t_start;
    check();
    ls.sync();
    if (rank == 0) fold_checks();
    if (mode == Mode::setup) return;

    for (int i = 0; i < kWarmupOps; ++i) {
      op();
      ls.sync();
      check();
      ls.sync();
      if (rank == 0) fold_checks();
    }

    // The measured loop.  In trace mode the operations alternate in pairs
    // between untraced and traced, so the overhead comparison sees no
    // drift and no period-two effect (such as allocator reuse).
    const bool tracing = mode == Mode::trace;
    msgs[r] = 0.0;
    words[r] = 0.0;
    const double wall0 = now_s();
    for (std::uint64_t it = 1;; ++it) {
      const bool traced = tracing && (it / 2) % 2 == 1;
      Window& w = traced ? run.traced : run.plain;
      const rt::CostCounters c0 = world.counters();
      const double t0 = ls.sync();
      const Usage u0 = ls.usage();
      const std::int64_t s0 = ls.steal();
      op();
      // A traced operation records its span before the closing barrier,
      // so the cost of tracing is part of its measured latency.
      if (traced) spans->add(op_name, rank, t0, now_s(), 0, it);
      const double t1 = ls.sync();
      const Usage u1 = ls.usage();
      const std::int64_t s1 = ls.steal();
      const rt::CostCounters c1 = world.counters();
      if (!traced) {
        msgs[r] += static_cast<double>(c1.msgs - c0.msgs);
        words[r] += static_cast<double>(c1.words - c0.words);
      }
      if (rank == 0) {
        w.latency_s.push_back(t1 - t0);
        w.steal_ticks.push_back(
            s0 < 0 || s1 < 0 ? -1.0 : static_cast<double>(s1 - s0));
        w.busy_s += t1 - t0;
        w.usage += u1 - u0;
        stop = run.plain.busy_s + run.traced.busy_s >= seconds ||
               now_s() - wall0 > kWallGuard * seconds;
      }
      check();
      ls.sync();
      if (rank == 0) fold_checks();
      if (stop) break;
    }
    if (rank == 0) {
      for (int q = 0; q < p; ++q) {
        run.plain.msgs += msgs[static_cast<std::size_t>(q)];
        run.plain.words += words[static_cast<std::size_t>(q)];
      }
    }
  };

  try {
    rt::Runtime::run(p, body, rt::Machine::counting(), spec.threads_per_rank);
  } catch (const std::exception& e) {
    run.tally.fail(std::string("error: ") + e.what());
  }
  return run;
}

RunResult run_service(const WorkloadSpec& spec, const Inputs& inputs,
                      Mode mode, double seconds, SpanLog* spans) {
  RunResult run;
  auto& reg = cacqr::obs::Registry::global();
  const double msgs0 = static_cast<double>(reg.counter("rt.modeled.msgs").value());
  const double words0 = static_cast<double>(reg.counter("rt.modeled.words").value());
  std::size_t next = 0;
  double jobs = 0.0;
  try {
    const double t_start = now_s();
    serve::FactorizeService svc(
        {.ranks = spec.ranks, .threads_per_rank = spec.threads_per_rank});
    {
      // Set-up: spin-up plus the first, cold job.
      const std::size_t panel = next++ % inputs.panels.size();
      const serve::JobHandle first = svc.submit(inputs.panels[panel]);
      first.wait();
      run.setup_s = now_s() - t_start;
      check_job(first, inputs, panel, run);
    }
    if (mode == Mode::setup) return run;
    Window warm;
    run_client(svc, inputs,
               {.outstanding = kOutstanding,
                .chunk_jobs = spec.shapes.size() * 4},
               0.0, next, warm, run, nullptr);
    const ClientLoop loop{.outstanding = kOutstanding,
                          .chunk_jobs = kChunkJobs};
    if (mode == Mode::trace) {
      // Chunks alternate between untraced and traced (no drift between
      // the two halves of the overhead comparison).
      while (run.plain.busy_s + run.traced.busy_s < seconds) {
        run_client(svc, inputs, loop, 0.0, next, run.plain, run, nullptr);
        run_client(svc, inputs, loop, 0.0, next, run.traced, run, spans);
      }
    } else {
      run_client(svc, inputs, loop, seconds, next, run.plain, run, nullptr);
    }
    svc.shutdown();
    jobs = static_cast<double>(svc.stats().completed + svc.stats().failed);
  } catch (const std::exception& e) {
    run.tally.fail(std::string("error: ") + e.what());
  }
  // The registry's rt counters advance when the engine world ends, so the
  // per-job figure covers every job the service ran.
  if (jobs > 0) {
    run.registry_msgs_per_job =
        (static_cast<double>(reg.counter("rt.modeled.msgs").value()) - msgs0) / jobs;
    run.registry_words_per_job =
        (static_cast<double>(reg.counter("rt.modeled.words").value()) - words0) / jobs;
  }
  return run;
}

}  // namespace

bool check_job(const serve::JobHandle& job, const Inputs& inputs,
               std::size_t panel, RunResult& run) {
  const serve::JobStatus st = job.status();
  if (st != serve::JobStatus::done) {
    run.tally.fail(std::string("job ") + serve::job_status_name(st));
    return false;
  }
  const serve::JobResult& res = job.result();
  record_check(
      check_qr(inputs.panels[panel], inputs.fro[panel], res.q, res.r),
      run.tally, run.orth_max, run.resid_max);
  return true;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& s : workloads()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  cacqr::Rng rng(seed);
  Inputs in;
  // Instance-major, so cycling the panels in order interleaves the shapes.
  for (int k = 0; k < spec.instances; ++k) {
    for (const Shape& s : spec.shapes) {
      in.panels.push_back(lin::gaussian(rng, s.m, s.n));
      in.fro.push_back(frobenius(in.panels.back()));
    }
  }
  return in;
}

void record_check(const CheckResult& c, Tally& tally, double& orth_max,
                  double& resid_max) {
  orth_max = std::max(orth_max, c.orth_err);
  resid_max = std::max(resid_max, c.resid_err);
  if (c.ok) {
    tally.pass();
  } else {
    tally.fail("check: " + c.reason);
  }
}

lin::Matrix pad_rows(lin::ConstMatrixView a, int d) {
  const i64 m = (a.rows + d - 1) / d * d;
  lin::Matrix out(m, a.cols);
  for (i64 j = 0; j < a.cols; ++j) {
    for (i64 i = 0; i < a.rows; ++i) out(i, j) = a(i, j);
  }
  return out;
}

void run_client(serve::FactorizeService& svc, const Inputs& inputs,
                const ClientLoop& loop, double budget_s, std::size_t& next,
                Window& w, RunResult& run, SpanLog* spans) {
  struct Pending {
    serve::JobHandle handle;
    std::size_t panel = 0;
    std::uint64_t id = 0;
    double t_submit = 0.0;
    double t_done = 0.0;
  };
  const std::size_t n_inputs = inputs.panels.size();
  const double wall0 = now_s();
  do {
    // One chunk: closed loop with `outstanding` jobs in flight, then drain.
    std::deque<Pending> inflight;
    std::vector<Pending> done;
    done.reserve(loop.chunk_jobs);
    std::size_t submitted = 0;
    auto submit = [&] {
      Pending job;
      job.id = next;
      job.panel = next++ % n_inputs;
      job.t_submit = now_s();
      job.handle = svc.submit(inputs.panels[job.panel]);
      inflight.push_back(std::move(job));
      ++submitted;
    };
    const serve::ServiceStats s0 = svc.stats();
    const Usage u0 = Usage::now();
    const double t0 = now_s();
    while (inflight.size() < loop.outstanding && submitted < loop.chunk_jobs) {
      submit();
    }
    while (!inflight.empty()) {
      Pending job = std::move(inflight.front());
      inflight.pop_front();
      job.handle.wait();
      job.t_done = now_s();
      if (spans != nullptr &&
          job.handle.status() == serve::JobStatus::done) {
        // Queue and exec are placed from the job's own stopwatches,
        // relative to the client's submit stamp.
        const serve::JobResult& res = job.handle.result();
        const std::uint64_t id =
            spans->add("serve.job", -1, job.t_submit, job.t_done, 0, job.id);
        const double tq = job.t_submit + res.queue_seconds;
        spans->add("serve.queue", -1, job.t_submit, tq, id, job.id);
        spans->add("serve.exec", -1, tq, tq + res.exec_seconds, id, job.id);
      }
      done.push_back(std::move(job));
      if (submitted < loop.chunk_jobs) submit();
    }
    const double t1 = now_s();
    const Usage u1 = Usage::now();
    const serve::ServiceStats s1 = svc.stats();
    w.busy_s += t1 - t0;
    w.usage += u1 - u0;
    w.dispatch_rounds += static_cast<double>(s1.rounds - s0.rounds);
    w.batched_jobs += static_cast<double>(s1.batched_jobs - s0.batched_jobs);
    w.completed += static_cast<double>(s1.completed - s0.completed);
    w.rejected += static_cast<double>(s1.rejected - s0.rejected);

    // Off the clock: every job's outcome and factors.
    for (const Pending& job : done) {
      if (!check_job(job.handle, inputs, job.panel, run)) continue;
      const serve::JobResult& res = job.handle.result();
      const double lat = job.t_done - job.t_submit;
      w.latency_s.push_back(lat);
      w.queue_s.push_back(res.queue_seconds);
      w.exec_s.push_back(res.exec_seconds);
      w.handoff_s.push_back(lat - res.queue_seconds - res.exec_seconds);
    }
  } while (w.busy_s < budget_s && now_s() - wall0 < kWallGuard * budget_s);
}

RunResult run_workload(const WorkloadSpec& spec, const Inputs& inputs,
                       Mode mode, double seconds, SpanLog* spans) {
  RunResult run = spec.kind == Kind::serve_small_panels
                      ? run_service(spec, inputs, mode, seconds, spans)
                      : run_collective(spec, inputs, mode, seconds, spans);
  run.max_rss_kb = Usage::now().max_rss_kb;
  run.arena_high_water = lin::kernel::arena_stats().high_water_bytes;
  return run;
}

}  // namespace perfbench
