// Per-layer probes of the traced run: each layer's public functions are
// called with the workload's exact per-rank operands, under spans, and the
// per-layer metrics are medians over those spans.

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/grid/grid.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/flops.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/rt/comm.hpp"
#include "cacqr/serve/service.hpp"
#include "cacqr/tune/calibrate.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace lin = cacqr::lin;
namespace rt = cacqr::rt;

namespace {

constexpr int kLinReps = 21;
constexpr int kRoofReps = 7;
constexpr int kCollectiveReps = 20;
/// Replays per shape: fewer for the large panel, whose factorize alone
/// takes tens of milliseconds.
constexpr int kReplayRepsLarge = 11;
constexpr int kReplayRepsSmall = 15;
constexpr i64 kRoofCopyDoubles = i64(2) << 20;  // 16 MiB per buffer
constexpr i64 kRoofGemmN = 384;
/// Service probe on the collective workloads: measured seconds.
constexpr double kServeProbeSeconds = 2.0;

std::string shape_tag(const Shape& s) {
  return std::to_string(s.m) + "x" + std::to_string(s.n);
}

double med(const SpanLog& spans, const std::string& name) {
  return median(spans.durations_ms(name));
}

/// Collective-level timing inside a world: every rank calls; rank 0
/// records one span from "all ranks ready" to "slowest rank returned",
/// plus the model time alpha * msgs + beta * words of the slowest rank's
/// exact counter deltas.
class Timer {
 public:
  Timer(int ranks, SpanLog& spans, double alpha, double beta)
      : ls_(ranks),
        spans_(spans),
        alpha_(alpha),
        beta_(beta),
        dm_(static_cast<std::size_t>(ranks)),
        dw_(static_cast<std::size_t>(ranks)) {}

  template <class Fn>
  void time(const rt::Comm& world, const std::string& name, std::uint64_t op,
            Fn&& fn) {
    const auto r = static_cast<std::size_t>(world.rank());
    const rt::CostCounters c0 = world.counters();
    const double t0 = ls_.sync();
    fn();
    const double t1 = ls_.sync();
    const rt::CostCounters c1 = world.counters();
    dm_[r] = static_cast<double>(c1.msgs - c0.msgs);
    dw_[r] = static_cast<double>(c1.words - c0.words);
    ls_.sync();
    if (r == 0) {
      spans_.add(name, -1, t0, t1, 0, op);
      const double m = *std::max_element(dm_.begin(), dm_.end());
      const double w = *std::max_element(dw_.begin(), dw_.end());
      model_ms_[name].push_back(1e3 * (alpha_ * m + beta_ * w));
    }
    ls_.sync();
  }
  [[nodiscard]] double model_ms(const std::string& name) const {
    return median(model_ms_.at(name));
  }

 private:
  Lockstep ls_;
  SpanLog& spans_;
  double alpha_;
  double beta_;
  std::vector<double> dm_;
  std::vector<double> dw_;
  std::map<std::string, std::vector<double>> model_ms_;  // rank 0 only
};

struct LinFigures {
  double gram_flops = 0.0;  // one call per shape, summed over the mix
  double trmm_flops = 0.0;
  double gram_bytes = 0.0;
  double trmm_bytes = 0.0;
};

/// lin: gram and trmm on each rank's local panel, all ranks at once as in
/// the workload, plus the two roofs measured the same way.
LinFigures probe_lin(const WorkloadSpec& spec,
                     const std::vector<lin::Matrix>& padded, SpanLog& spans) {
  const int p = spec.ranks;
  LinFigures fig;
  Lockstep ls(p);
  rt::Runtime::run(
      p,
      [&](rt::Comm& world) {
        const int rank = world.rank();
        for (std::size_t s = 0; s < padded.size(); ++s) {
          const std::string tag = shape_tag(spec.shapes[s]);
          const lin::Matrix local =
              cacqr::dist::DistMatrix::from_global(padded[s], p, 1, rank, 0)
                  .local();
          const i64 ml = local.rows();
          const i64 n = local.cols();
          lin::Matrix gram_out(n, n);
          // Unit-diagonal upper triangle with small entries: a
          // well-conditioned R^{-1} stand-in.
          lin::Matrix t = lin::Matrix::identity(n);
          for (i64 j = 0; j < n; ++j) {
            for (i64 i = 0; i < j; ++i) t(i, j) = 0.5 / static_cast<double>(n);
          }
          lin::Matrix b = lin::Matrix::uninit(ml, n);
          i64 gram_f = 0;
          i64 trmm_f = 0;
          for (int rep = 0; rep < kLinReps; ++rep) {
            ls.sync();
            const i64 f0 = lin::flops::peek();
            const double t0 = now_s();
            lin::gram(1.0, local, 0.0, gram_out);
            const double t1 = now_s();
            gram_f = lin::flops::peek() - f0;
            spans.add("lin.gram " + tag, rank, t0, t1);
          }
          for (int rep = 0; rep < kLinReps; ++rep) {
            lin::copy(local, b);
            ls.sync();
            const i64 f0 = lin::flops::peek();
            const double t0 = now_s();
            lin::trmm(lin::Side::Right, lin::Uplo::Upper, lin::Trans::N,
                      lin::Diag::NonUnit, 1.0, t, b);
            const double t1 = now_s();
            trmm_f = lin::flops::peek() - f0;
            spans.add("lin.trmm " + tag, rank, t0, t1);
          }
          if (rank == 0) {
            // Bytes are computed from the operands, not measured: gram
            // reads the panel and writes the n x n result; trmm reads and
            // writes the panel and reads the triangle.
            const double mn = static_cast<double>(ml * n);
            const double nn = static_cast<double>(n * n);
            fig.gram_flops += static_cast<double>(gram_f);
            fig.trmm_flops += static_cast<double>(trmm_f);
            fig.gram_bytes += 8.0 * (mn + nn);
            fig.trmm_bytes += 8.0 * (2.0 * mn + 0.5 * (nn + static_cast<double>(n)));
          }
        }
        // Roofs, per rank with all ranks running: a copy bandwidth over a
        // 2 x 16 MiB working set (past the last-level cache) and a square
        // gemm rate at 384 (operands in cache).
        std::vector<double> src(static_cast<std::size_t>(kRoofCopyDoubles), 1.0);
        std::vector<double> dst(src.size(), 0.0);
        for (int rep = 0; rep < kRoofReps; ++rep) {
          ls.sync();
          const double t0 = now_s();
          std::memcpy(dst.data(), src.data(), src.size() * sizeof(double));
          const double t1 = now_s();
          spans.add("lin.roof.copy", rank, t0, t1);
        }
        const lin::Matrix x = lin::Matrix::identity(kRoofGemmN);
        lin::Matrix z(kRoofGemmN, kRoofGemmN);
        for (int rep = 0; rep < kRoofReps; ++rep) {
          ls.sync();
          const double t0 = now_s();
          lin::gemm(lin::Trans::N, lin::Trans::N, 1.0, x, x, 0.0, z);
          const double t1 = now_s();
          spans.add("lin.roof.gemm", rank, t0, t1);
        }
      },
      rt::Machine::counting(), spec.threads_per_rank);
  return fig;
}

}  // namespace

void probe_layers(const WorkloadSpec& spec, const Inputs& inputs,
                  RunResult& run, SpanLog& spans, std::vector<Metric>& out) {
  const int p = spec.ranks;
  const std::size_t n_shapes = spec.shapes.size();
  const double per_job = 1.0 / static_cast<double>(n_shapes);
  std::vector<lin::Matrix> padded;
  for (std::size_t s = 0; s < n_shapes; ++s) {
    const auto [c, d] = cacqr::core::choose_grid(p, spec.shapes[s].m,
                                                 spec.shapes[s].n);
    if (c != 1 || d != p) {
      throw std::logic_error("probe_layers: expected the c = 1 grid");
    }
    padded.push_back(pad_rows(inputs.panels[s], p));
  }
  auto add = [&](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };

  // ------------------------------------------------------------- lin
  const LinFigures lf = probe_lin(spec, padded, spans);
  double gram_ms = 0.0;
  double trmm_ms = 0.0;
  for (const Shape& s : spec.shapes) {
    gram_ms += med(spans, "lin.gram " + shape_tag(s));
    trmm_ms += med(spans, "lin.trmm " + shape_tag(s));
  }
  const double gram_gflops = lf.gram_flops / (1e6 * gram_ms);
  const double trmm_gflops = lf.trmm_flops / (1e6 * trmm_ms);
  const double stream_gbs = 2.0 * 8.0 * static_cast<double>(kRoofCopyDoubles) /
                            (1e6 * med(spans, "lin.roof.copy"));
  const double n3 = static_cast<double>(kRoofGemmN);
  const double peak_gflops = 2.0 * n3 * n3 * n3 / (1e6 * med(spans, "lin.roof.gemm"));
  // Roofline: the attainable rate at the kernel's computed intensity.
  auto roof_frac = [&](double gflops, double flops, double bytes) {
    return gflops / std::min(peak_gflops, flops / bytes * stream_gbs);
  };
  add("lin.gram.gflops", gram_gflops, "GF/s");
  add("lin.trmm.gflops", trmm_gflops, "GF/s");
  add("lin.gram.roof_frac", roof_frac(gram_gflops, lf.gram_flops, lf.gram_bytes), "ratio");
  add("lin.trmm.roof_frac", roof_frac(trmm_gflops, lf.trmm_flops, lf.trmm_bytes), "ratio");
  add("lin.gram.bytes", lf.gram_bytes * per_job, "B");
  add("lin.trmm.bytes", lf.trmm_bytes * per_job, "B");
  add("lin.roof.stream_gbs", stream_gbs, "GB/s");
  add("lin.roof.peak_gflops", peak_gflops, "GF/s");
  add("lin.arena.high_water_bytes", static_cast<double>(run.arena_high_water), "B");

  // ------------------------------------------------- rt calibration
  const cacqr::tune::MachineProfile prof = cacqr::tune::calibrate(
      {.quick = true, .ranks = p, .max_threads = 1});
  const double alpha = prof.machine.alpha_s;
  const double beta = prof.machine.beta_s;

  // --------------------------------------- dist / core driver replay
  std::vector<CheckResult> checks;  // rank 0's, folded after the run
  {
    Timer tm(p, spans, alpha, beta);
    rt::Runtime::run(
        p,
        [&](rt::Comm& world) {
          for (std::size_t s = 0; s < n_shapes; ++s) {
            const Shape& sh = spec.shapes[s];
            const std::string tag = " " + shape_tag(sh);
            const lin::Matrix& a = inputs.panels[s];
            const int reps = sh.m >= 8192 ? kReplayRepsLarge : kReplayRepsSmall;
            for (int rep = 0; rep < reps; ++rep) {
              const auto op = static_cast<std::uint64_t>(rep + 1);
              cacqr::core::FactorizeResult res;
              tm.time(world, "core.factorize" + tag, op,
                      [&] { res = cacqr::core::factorize(a, world); });
              std::optional<cacqr::grid::TunableGrid> g;
              cacqr::dist::DistMatrix da;
              tm.time(world, "dist.scatter" + tag, op, [&] {
                const lin::Matrix ap = pad_rows(a, p);
                g.emplace(world, 1, p);
                da = cacqr::dist::DistMatrix::from_global_on_tunable(ap, *g);
              });
              cacqr::core::CaCqrResult fact;
              tm.time(world, "core.cqr2" + tag, op,
                      [&] { fact = cacqr::core::ca_cqr2(da, *g); });
              lin::Matrix q;
              lin::Matrix r;
              tm.time(world, "dist.gather_q" + tag, op,
                      [&] { q = cacqr::dist::gather(fact.q, g->slice()); });
              tm.time(world, "dist.gather_r" + tag, op, [&] {
                r = cacqr::dist::gather(fact.r, g->subcube().slice());
              });
              if (world.rank() == 0) {
                checks.push_back(check_qr(a, inputs.fro[s], res.q, res.r));
                checks.push_back(
                    check_qr(a, inputs.fro[s], q.sub(0, 0, sh.m, sh.n), r));
              }
            }
          }
        },
        rt::Machine::counting(), spec.threads_per_rank);
  }
  for (const auto& c : checks) {
    record_check(c, run.tally, run.orth_max, run.resid_max);
  }
  auto replay_ms = [&](const std::string& step) {
    double sum = 0.0;
    for (const Shape& s : spec.shapes) sum += med(spans, step + " " + shape_tag(s));
    return sum * per_job;
  };
  const double fact_ms = replay_ms("core.factorize");
  const double scatter_ms = replay_ms("dist.scatter");
  const double cqr2_ms = replay_ms("core.cqr2");
  const double gq_ms = replay_ms("dist.gather_q");
  const double gr_ms = replay_ms("dist.gather_r");
  add("core.factorize.ms", fact_ms, "ms");
  add("dist.scatter.ms", scatter_ms, "ms");
  add("dist.gather_q.ms", gq_ms, "ms");
  add("dist.gather_r.ms", gr_ms, "ms");
  add("core.cqr2.ms", cqr2_ms, "ms");
  add("core.driver_overhead.ms", fact_ms - cqr2_ms, "ms");
  add("core.driver_unaccounted.ms",
      fact_ms - (scatter_ms + cqr2_ms + gq_ms + gr_ms), "ms");

  // ------------------------------------------------ rt collectives
  // Payloads: the Gram Allreduce (for the service, one fused batch of the
  // whole mix) and the per-rank Q block of the gather, per shape.
  {
    i64 gram_words = 0;
    for (const Shape& s : spec.shapes) gram_words += s.n * s.n;
    Timer tm(p, spans, alpha, beta);
    rt::Runtime::run(
        p,
        [&](rt::Comm& world) {
          std::vector<double> slab(static_cast<std::size_t>(gram_words), 1.0);
          for (int rep = 0; rep < kCollectiveReps; ++rep) {
            const auto op = static_cast<std::uint64_t>(rep + 1);
            tm.time(world, "rt.allreduce", op, [&] { world.allreduce_sum(slab); });
            for (std::size_t s = 0; s < n_shapes; ++s) {
              const auto block = static_cast<std::size_t>(
                  padded[s].rows() / p * padded[s].cols());
              std::vector<double> mine(block, 1.0);
              std::vector<double> all(block * static_cast<std::size_t>(p));
              tm.time(world, "rt.allgather " + shape_tag(spec.shapes[s]), op,
                      [&] { world.allgather(mine, all); });
            }
            tm.time(world, "rt.barrier", op, [&] { world.barrier(); });
          }
        },
        rt::Machine::counting(), spec.threads_per_rank);
    double ag_ms = 0.0;
    double ag_model = 0.0;
    for (const Shape& s : spec.shapes) {
      ag_ms += med(spans, "rt.allgather " + shape_tag(s));
      ag_model += tm.model_ms("rt.allgather " + shape_tag(s));
    }
    add("rt.allreduce.ms", med(spans, "rt.allreduce"), "ms");
    add("rt.allreduce.model_ms", tm.model_ms("rt.allreduce"), "ms");
    add("rt.allgather.ms", ag_ms * per_job, "ms");
    add("rt.allgather.model_ms", ag_model * per_job, "ms");
    add("rt.barrier.ms", med(spans, "rt.barrier"), "ms");
  }
  const bool service = spec.kind == Kind::serve_small_panels;
  const Window& traced = run.traced;
  const double ops = static_cast<double>(std::max<std::size_t>(1, run.plain.ops()));
  add("rt.msgs_per_op",
      service ? run.registry_msgs_per_job : run.plain.msgs / ops, "msgs");
  add("rt.words_per_op",
      service ? run.registry_words_per_job : run.plain.words / ops, "words");

  // ---------------------------------------------------------- serve
  // The service workload reports its own traced window; the collective
  // workloads put their operand through a service of the same width,
  // one job in flight.
  Window probe;
  if (!service) {
    cacqr::serve::FactorizeService svc(
        {.ranks = p, .threads_per_rank = spec.threads_per_rank});
    std::size_t next = 0;
    Window warm;
    run_client(svc, inputs, {.outstanding = 1, .chunk_jobs = 1}, 0.0, next,
               warm, run, nullptr);
    run_client(svc, inputs, {.outstanding = 1, .chunk_jobs = 4},
               kServeProbeSeconds, next, probe, run, &spans);
  }
  const Window& sw = service ? traced : probe;
  auto ms = [](const std::vector<double>& v) {
    std::vector<double> out;
    for (const double x : v) out.push_back(1e3 * x);
    return out;
  };
  const double completed = std::max(1.0, sw.completed);
  add("serve.queue_ms.p50", median(ms(sw.queue_s)), "ms");
  add("serve.queue_ms.tail", tail(ms(sw.queue_s)).value, "ms");
  add("serve.exec_ms.p50", median(ms(sw.exec_s)), "ms");
  add("serve.exec_ms.tail", tail(ms(sw.exec_s)).value, "ms");
  add("serve.handoff_ms.p50", median(ms(sw.handoff_s)), "ms");
  add("serve.batch_size.mean", sw.completed / std::max(1.0, sw.dispatch_rounds), "jobs");
  add("serve.batched_share", sw.batched_jobs / completed, "ratio");
  add("serve.rounds_per_job", sw.dispatch_rounds / completed, "rounds");
  add("serve.rejected", sw.rejected, "count");

  // ----------------------------------------------------- proc, core
  add("proc.minflt_per_op", static_cast<double>(run.plain.usage.minflt) / ops, "faults");
  add("proc.ctxsw_per_op", static_cast<double>(run.plain.usage.ctxsw()) / ops, "switches");
  add("core.orth_err_max", run.orth_max, "1");
  add("core.resid_err_max", run.resid_max, "1");
  add("bench.trace_overhead_frac",
      median(traced.latency_s) / median(run.plain.latency_s) - 1.0, "ratio");
}

}  // namespace perfbench
