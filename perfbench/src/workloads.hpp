#pragma once
/// \file workloads.hpp
/// \brief The benchmark's workloads: inputs made from the seed, the
///        timed windows, and the per-layer probes (layers.cpp).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cacqr/lin/matrix.hpp"
#include "check.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace cacqr::serve {
class FactorizeService;
class JobHandle;
}

namespace perfbench {

using cacqr::i64;

struct Shape {
  i64 m = 0;
  i64 n = 0;
};

enum class Kind { replicated_driver, distributed_cqr2, serve_small_panels };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  int ranks;              ///< SPMD ranks (engine ranks for the service)
  int threads_per_rank;   ///< kernel workers per rank
  int generator_threads;  ///< client threads beside the ranks
  std::vector<Shape> shapes;  ///< the operand(s); the service cycles them
  int instances;          ///< distinct inputs generated per shape
};

/// nullptr when `name` is not a workload.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Inputs generated from the seed before any timing: Gaussian panels
/// (well conditioned: kappa <= 2 for every shape used here), instance-
/// major (panel i has shape i mod shapes.size()), `instances` per shape,
/// with their Frobenius norms for the check.
struct Inputs {
  std::vector<cacqr::lin::Matrix> panels;
  std::vector<double> fro;
};
[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// One measured window.  The end-to-end figures are computed from its
/// operations by run.py, over every timed process of a run.
struct Window {
  std::vector<double> latency_s;  ///< per completed operation
  /// Collective workloads: steal_ticks() risen over each operation.
  /// Empty for the service, whose jobs overlap.
  std::vector<double> steal_ticks;
  double busy_s = 0.0;  ///< measured time: sum of op (or job chunk) spans
  Usage usage;          ///< resource use over exactly that time
  double msgs = 0.0;    ///< messages sent, all ranks, over the window
  double words = 0.0;   ///< 8-byte words sent, all ranks
  // Service jobs only (from JobResult and ServiceStats deltas):
  std::vector<double> queue_s;
  std::vector<double> exec_s;
  std::vector<double> handoff_s;
  double dispatch_rounds = 0.0;  ///< service scheduler rounds
  double batched_jobs = 0.0;
  double completed = 0.0;
  double rejected = 0.0;

  [[nodiscard]] std::size_t ops() const { return latency_s.size(); }
};

/// run: set-up, warmup and the measured window; trace: the same with
/// traced operations interleaved (probes follow); setup: set-up only.
enum class Mode { run, trace, setup };

struct RunResult {
  double setup_s = 0.0;
  Window plain;   ///< untraced operations
  Window traced;  ///< trace mode only: the operations recorded as spans
  Tally tally;    ///< every operation issued, setup and warmup included
  double orth_max = 0.0;
  double resid_max = 0.0;
  std::int64_t max_rss_kb = 0;  ///< at the end of the measured windows
  std::int64_t arena_high_water = 0;
  /// rt.msgs/words deltas per job from the obs registry (service runs).
  double registry_msgs_per_job = 0.0;
  double registry_words_per_job = 0.0;
};

/// Runs a workload: set-up (spin-up plus the first, cold operation), a
/// short warmup, then a closed-loop window until `seconds` of measured
/// time.  Mode::trace alternates untraced and traced operations (or job
/// chunks) over the same budget; recording a traced operation's spans is
/// part of its measured time.  Mode::setup stops after the set-up.  Every
/// returned Q/R is checked outside the measured time.
[[nodiscard]] RunResult run_workload(const WorkloadSpec& spec,
                                     const Inputs& inputs, Mode mode,
                                     double seconds, SpanLog* spans);

/// Folds one check into the tally and the error maxima.
void record_check(const CheckResult& c, Tally& tally, double& orth_max,
                  double& resid_max);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per-layer probes: each layer's public functions called with the
/// workload's exact per-rank operands, under spans (layers.cpp).
/// Appends the per-layer metrics; checks what it factorizes into `run`.
void probe_layers(const WorkloadSpec& spec, const Inputs& inputs,
                  RunResult& run, SpanLog& spans, std::vector<Metric>& out);

/// Zero-row padding of `a` to a multiple of `d` rows: the heuristic
/// driver's own padding when c == 1 (zero rows leave A^T A unchanged).
[[nodiscard]] cacqr::lin::Matrix pad_rows(cacqr::lin::ConstMatrixView a,
                                          int d);

/// Folds a finished job into the tally: a job that did not complete
/// fails; a completed one is checked.  Returns whether it completed.
bool check_job(const cacqr::serve::JobHandle& job, const Inputs& inputs,
               std::size_t panel, RunResult& run);

/// Closed-loop client over a service (serve workload and serve probe):
/// keeps `outstanding` jobs in flight, cycling `inputs.panels` from
/// `next`, until `budget_s` of measured time.  Each chunk of `chunk_jobs`
/// jobs is drained and its results checked outside the measured time.
/// With `spans`, each job's spans are recorded as it completes, inside
/// the measured time.
struct ClientLoop {
  std::size_t outstanding = 1;
  std::size_t chunk_jobs = 1;
};
void run_client(cacqr::serve::FactorizeService& svc, const Inputs& inputs,
                const ClientLoop& loop, double budget_s, std::size_t& next,
                Window& w, RunResult& run, SpanLog* spans);

}  // namespace perfbench
