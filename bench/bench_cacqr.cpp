/// \file bench_cacqr.cpp
/// \brief End-to-end wall-clock trajectory of the distributed algorithms:
///        1D-CholeskyQR, CA-CholeskyQR2, and the PGEQRF baseline over a
///        (m, n, grid, threads_per_rank) sweep.
///
/// Where bench_kernels measures isolated level-3 kernels, this harness
/// times whole factorizations through the SPMD runtime -- local packed
/// kernels, the threaded dist/ local stages, and the collectives between
/// them -- so the perf trajectory records whether kernel- and dist-level
/// threading pays off at the algorithm level (the CAQR-style interleaving
/// of local work and communication the paper's schedules rely on).
///
/// Comparison rule (see docs/benchmarks.md): wall-clock numbers are only
/// comparable within one host.  To validate a speedup, rebuild the
/// previous commit on the same machine and run this harness from both
/// builds; do NOT diff against a committed JSON from another host.
///
/// Usage: bench_cacqr [--json[=PATH]] [--quick] [--threads-list=T1,T2,...]
///                    [--plan-mode=M1,M2,...]
///   --json          additionally write machine-readable results (default
///                   PATH: bench_out/bench_cacqr.json) -- the artifact CI
///                   uploads and PRs commit at perf/bench_cacqr.json.
///   --quick         one small shape / fewer repetitions (CI smoke mode).
///   --threads-list  per-rank worker budgets to sweep.  The default is
///                   hw_threads-aware: {1, 2, 4} ({1, 4} in quick mode)
///                   filtered to budgets the host can actually run in
///                   parallel, so a 1-hardware-thread container measures
///                   only threads=1 instead of silently recording
///                   oversubscription.  An explicit list is taken as-is.
///   --plan-mode     which core::factorize planning policies the driver
///                   sweep measures (subset of heuristic,model,measured;
///                   default heuristic,model).  These rows time the WHOLE
///                   factorize driver -- padding, distribution, the
///                   factorization, and the final gathers -- under each
///                   policy, so the trajectory records heuristic-vs-
///                   planned wins.  model/measured calibrate this host
///                   once (quick) at startup; measured additionally pays
///                   its trial runs in the warmup rep only (the plan memo
///                   serves the timed reps).
///
/// Reported per point (each point is measured twice, overlap off then on,
/// via rt::set_overlap_enabled -- the CACQR_OVERLAP runtime toggle):
///   seconds      best-of-reps wall time with overlap OFF, factorization
///                call alone -- grid construction and data distribution
///                happen outside the timed window -- max over ranks
///                (barrier-fenced inside one Runtime::run, so thread pools
///                and rank threads are warm);
///   seconds_ovl  the same with communication/computation overlap ON;
///   gflops[_ovl] 2 m n^2 - 2 n^3 / 3 (the Householder QR flop count)
///                divided by the matching seconds -- a useful-work rate,
///                comparable across algorithms that do different amounts
///                of raw arithmetic;
///   msgs/words/flops  max-over-ranks modeled cost counters for ONE
///                factorization (deterministic: independent of threading
///                AND of overlap -- the harness errors out if the two
///                modes ever disagree).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cacqr/baseline/pgeqrf_2d.hpp"
#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/tune/calibrate.hpp"

namespace {

using namespace cacqr;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// One sweep point: which algorithm on which process grid.
struct Config {
  std::string algo;  ///< "ca_cqr" | "pgeqrf_2d"
  int p = 0;         ///< total ranks
  int c = 0, d = 0;  ///< ca_cqr tunable grid
  int pr = 0, pc = 0;
  i64 block = 0;     ///< pgeqrf_2d grid / panel width

  [[nodiscard]] std::string grid() const {
    if (algo == "ca_cqr") {
      return "c" + std::to_string(c) + "d" + std::to_string(d);
    }
    return std::to_string(pr) + "x" + std::to_string(pc) + "b" +
           std::to_string(block);
  }

  [[nodiscard]] bool fits(i64 m, i64 n) const {
    if (algo == "ca_cqr") {
      return m % d == 0 && n % c == 0 && n >= i64{c} * c;
    }
    // pgeqrf_2d also distributes the n x n R over the same grid, so n
    // must contain full block cycles of BOTH grid extents.
    return m % (block * pr) == 0 && n % (block * pr) == 0 &&
           n % (block * pc) == 0;
  }
};

struct Point {
  std::string algo;
  std::string grid;
  std::string precision;       ///< Gram-stage precision of this row
  std::string kernel_variant;  ///< micro-kernel variant dispatched
  i64 m = 0;
  i64 n = 0;
  int p = 0;
  int threads = 0;
  double seconds = 0.0;          ///< overlap off
  double gflops = 0.0;           ///< overlap off
  double seconds_overlap = 0.0;  ///< overlap on
  double gflops_overlap = 0.0;   ///< overlap on
  i64 msgs = 0;
  i64 words = 0;
  i64 flops = 0;
};

/// One measured mode: best wall time + max-over-ranks cost delta.
struct ModeResult {
  double seconds = 0.0;
  rt::CostCounters cost;
};

/// Times `reps` factorizations inside ONE Runtime::run (rank threads and
/// per-rank worker pools stay warm across repetitions, matching how a
/// long-lived job behaves).  `setup(world, a)` builds the grid and
/// distributes the input OUTSIDE the timed region and returns the
/// factorization closure; only that closure is inside the barrier fences,
/// so `seconds` and the counter deltas cover the factorization alone.
/// Returns the best barrier-to-barrier wall time and the max-over-ranks
/// cost delta of a single factorization, with overlap set as requested
/// for the whole run.
template <class Setup>
ModeResult measure_mode(const Config& cfg, i64 m, i64 n, int threads,
                        int reps, bool overlap, const Setup& setup) {
  const bool prev_overlap = rt::overlap_enabled();
  rt::set_overlap_enabled(overlap);
  std::vector<double> per_rank_best(static_cast<std::size_t>(cfg.p), 1e300);
  std::vector<rt::CostCounters> per_rank_cost(
      static_cast<std::size_t>(cfg.p));
  rt::Runtime::run(
      cfg.p,
      [&](rt::Comm& world) {
        const lin::Matrix a = lin::hashed_matrix(1789, m, n);
        const std::function<void()> factor = setup(world, a);
        for (int rep = 0; rep <= reps; ++rep) {
          world.barrier();
          const rt::CostCounters before = world.counters();
          const double t0 = now_seconds();
          factor();
          // Snapshot the cost delta BEFORE the fencing barrier: barrier()
          // itself charges ceil(lg P) messages that are measurement
          // scaffolding, not part of the factorization.
          const rt::CostCounters after = world.counters();
          world.barrier();
          const double dt = now_seconds() - t0;
          auto& best = per_rank_best[static_cast<std::size_t>(world.rank())];
          // rep 0 is the warmup: pools spawn, arenas grow.
          if (rep > 0) best = std::min(best, dt);
          per_rank_cost[static_cast<std::size_t>(world.rank())] =
              after - before;
        }
      },
      rt::Machine::counting(), threads);
  rt::set_overlap_enabled(prev_overlap);

  ModeResult out;
  out.seconds = *std::max_element(per_rank_best.begin(), per_rank_best.end());
  out.cost = rt::max_counters(per_rank_cost);
  return out;
}

/// Measures one sweep point in both overlap modes and cross-checks that
/// the raw cost counters agree (they must: overlap only reorders local
/// work).  Exits nonzero on disagreement -- that would mean the request
/// engine charges differently from the blocking schedules.
template <class Setup>
Point measure(const Config& cfg, i64 m, i64 n, int threads, int reps,
              const Setup& setup) {
  const ModeResult off = measure_mode(cfg, m, n, threads, reps, false, setup);
  const ModeResult on = measure_mode(cfg, m, n, threads, reps, true, setup);
  if (off.cost.msgs != on.cost.msgs || off.cost.words != on.cost.words ||
      off.cost.flops != on.cost.flops) {
    std::fprintf(stderr,
                 "error: overlap changed the cost counters (%s %lldx%lld): "
                 "msgs %lld vs %lld, words %lld vs %lld, flops %lld vs %lld\n",
                 cfg.algo.c_str(), static_cast<long long>(m),
                 static_cast<long long>(n),
                 static_cast<long long>(off.cost.msgs),
                 static_cast<long long>(on.cost.msgs),
                 static_cast<long long>(off.cost.words),
                 static_cast<long long>(on.cost.words),
                 static_cast<long long>(off.cost.flops),
                 static_cast<long long>(on.cost.flops));
    std::exit(1);
  }

  Point out;
  out.algo = cfg.algo;
  out.grid = cfg.grid();
  out.kernel_variant =
      lin::kernel::variant_name(lin::kernel::active_variant());
  out.m = m;
  out.n = n;
  out.p = cfg.p;
  out.threads = threads;
  out.seconds = off.seconds;
  out.seconds_overlap = on.seconds;
  const double dn = static_cast<double>(n);
  const double qr_flops =
      2.0 * static_cast<double>(m) * dn * dn - 2.0 * dn * dn * dn / 3.0;
  out.gflops = qr_flops / out.seconds * 1e-9;
  out.gflops_overlap = qr_flops / out.seconds_overlap * 1e-9;
  out.msgs = off.cost.msgs;
  out.words = off.cost.words;
  out.flops = off.cost.flops;
  return out;
}

/// One row of the factorize-driver plan sweep.
struct PlanPoint {
  std::string plan_mode;  ///< "heuristic" | "model" | "measured"
  std::string algo;       ///< variant the policy picked
  std::string grid;
  std::string source;     ///< plan provenance ("heuristic"/"model"/...)
  std::string precision;       ///< requested Gram-stage precision
  std::string kernel_variant;  ///< variant the factorization dispatched to
  i64 m = 0;
  i64 n = 0;
  int p = 0;
  int threads = 0;
  double seconds = 0.0;    ///< whole factorize() call, best-of-reps
  double gflops = 0.0;
  double predicted = 0.0;  ///< the planner's modeled seconds (0: heuristic)
};

/// Times the whole factorize driver under one planning policy.  Unlike
/// measure_mode, pad/distribute/gather are INSIDE the window -- the
/// driver is the product surface the planner optimizes.  Overlap stays
/// off: plan policies are compared under one fixed schedule.
PlanPoint measure_factorize(i64 m, i64 n, int p, int threads, int reps,
                            core::PlanMode mode, const char* mode_name,
                            Precision precision,
                            const tune::MachineProfile* profile) {
  const bool prev_overlap = rt::overlap_enabled();
  rt::set_overlap_enabled(false);
  std::vector<double> per_rank_best(static_cast<std::size_t>(p), 1e300);
  PlanPoint out;
  rt::Runtime::run(
      p,
      [&](rt::Comm& world) {
        const lin::Matrix a = lin::hashed_matrix(1789, m, n);
        core::FactorizeOptions opts;
        opts.plan_mode = mode;
        opts.precision = precision;
        opts.profile = profile;
        for (int rep = 0; rep <= reps; ++rep) {
          world.barrier();
          const double t0 = now_seconds();
          const core::FactorizeResult res = core::factorize(a, world, opts);
          world.barrier();
          const double dt = now_seconds() - t0;
          auto& best = per_rank_best[static_cast<std::size_t>(world.rank())];
          // rep 0 is the warmup: pools spawn, and in measured mode the
          // trial runs + cache fill happen here, not in the timed reps.
          if (rep > 0) best = std::min(best, dt);
          if (world.rank() == 0 && rep == reps) {
            out.algo = res.algo;
            out.grid = res.plan.grid();
            out.source = res.plan.source;
            out.kernel_variant = res.kernel_variant;
            out.predicted = res.plan.predicted_seconds;
          }
        }
      },
      rt::Machine::counting(), threads);
  rt::set_overlap_enabled(prev_overlap);

  out.plan_mode = mode_name;
  out.precision = precision_name(precision);
  out.m = m;
  out.n = n;
  out.p = p;
  out.threads = threads;
  out.seconds = *std::max_element(per_rank_best.begin(), per_rank_best.end());
  const double dn = static_cast<double>(n);
  const double qr_flops =
      2.0 * static_cast<double>(m) * dn * dn - 2.0 * dn * dn * dn / 3.0;
  out.gflops = qr_flops / out.seconds * 1e-9;
  return out;
}

/// Parses "1,2,4" into per-rank budgets; returns empty on malformed input.
std::vector<int> parse_threads_list(const std::string& s) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    const std::string tok = s.substr(pos, comma - pos);
    if (tok.empty()) return {};
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (end != tok.c_str() + tok.size() || v < 1 || v > 256) return {};
    out.push_back(static_cast<int>(v));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  std::string json_path = "bench_out/bench_cacqr.json";
  std::vector<int> explicit_threads;
  std::vector<std::string> plan_modes = {"heuristic", "model"};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
      if (json_path.empty()) {
        std::fprintf(stderr, "error: --json= requires a path\n");
        return 2;
      }
    } else if (arg.rfind("--threads-list=", 0) == 0) {
      explicit_threads = parse_threads_list(arg.substr(15));
      if (explicit_threads.empty()) {
        std::fprintf(stderr,
                     "error: --threads-list= wants comma-separated budgets "
                     "in [1, 256], e.g. --threads-list=1,2,4\n");
        return 2;
      }
    } else if (arg.rfind("--plan-mode=", 0) == 0) {
      plan_modes.clear();
      std::string list = arg.substr(12);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const std::string tok = list.substr(pos, comma - pos);
        if (tok == "heuristic" || tok == "model" || tok == "measured") {
          plan_modes.push_back(tok);
        } else {
          std::fprintf(stderr,
                       "error: --plan-mode= wants a comma-separated subset "
                       "of heuristic,model,measured\n");
          return 2;
        }
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json[=PATH]] [--quick] "
                   "[--threads-list=T1,T2,...] [--plan-mode=M1,M2,...]\n",
                   argv[0]);
      return 2;
    }
  }

  // Shapes: tall-skinny panels, m >> n (the regime the paper targets).
  const std::vector<std::pair<i64, i64>> shapes =
      quick ? std::vector<std::pair<i64, i64>>{{2048, 64}}
            : std::vector<std::pair<i64, i64>>{{8192, 128}, {16384, 256}};
  const int hw_threads = lin::parallel::hardware_threads();
  // hw_threads-aware default: drop budgets the host cannot actually run
  // in parallel, so the committed trajectory never silently records
  // oversubscription (threads=1 always stays).  --threads-list overrides
  // verbatim for deliberate oversubscription studies.
  std::vector<int> thread_counts = explicit_threads;
  if (thread_counts.empty()) {
    for (const int t : quick ? std::vector<int>{1, 4}
                             : std::vector<int>{1, 2, 4}) {
      if (t == 1 || t <= hw_threads) thread_counts.push_back(t);
    }
  }
  const int reps = quick ? 2 : 3;

  // Grids: 4- and 8-rank instances of each algorithm family.  ca_cqr is
  // Algorithm 8 on the tunable c x d x c grid (c=1 is Algorithm 6, the
  // 1D pass; c=2 is a genuine cube with MM3D/transpose3d on the critical
  // path), pgeqrf_2d the ScaLAPACK-style 2D Householder baseline.
  const std::vector<Config> configs = {
      {.algo = "ca_cqr", .p = 4, .c = 1, .d = 4},
      {.algo = "ca_cqr", .p = 8, .c = 1, .d = 8},
      {.algo = "ca_cqr", .p = 8, .c = 2, .d = 2},
      {.algo = "pgeqrf_2d", .p = 4, .pr = 4, .pc = 1, .block = 16},
      {.algo = "pgeqrf_2d", .p = 8, .pr = 4, .pc = 2, .block = 16},
  };

  std::printf("bench_cacqr: end-to-end factorization sweep (host hardware "
              "threads: %d; per-rank budgets:",
              hw_threads);
  for (const int t : thread_counts) std::printf(" %d", t);
  std::printf(")\n");
  std::printf(
      "%-10s %-8s %-5s %8s %5s %3s %3s %10s %10s %10s %10s %10s %12s "
      "%12s\n",
      "algo", "grid", "prec", "m", "n", "P", "t", "seconds", "sec_ovl",
      "GF/s", "GF/s_ovl", "msgs", "words", "flops");

  std::vector<Point> points;
  for (const auto& [m, n] : shapes) {
    for (const Config& cfg : configs) {
      if (!cfg.fits(m, n)) continue;
      // The precision sweep: the single-pass CholeskyQR kernels time
      // their Gram stage in both lanes (a one-pass driver maps `mixed`
      // onto the same fp32 Gram, so only the endpoints are distinct
      // rows here; the factorize-driver sweep below covers `mixed` on
      // the two-pass product surface).  pgeqrf_2d has no fp32 lane.
      const std::vector<Precision> precisions =
          cfg.algo == "pgeqrf_2d"
              ? std::vector<Precision>{Precision::fp64}
              : std::vector<Precision>{Precision::fp64, Precision::fp32};
      for (const int t : thread_counts) {
        for (const Precision prec : precisions) {
          Point pt;
          if (cfg.algo == "ca_cqr") {
            pt = measure(
                cfg, m, n, t, reps,
                [&, c = cfg.c,
                 d = cfg.d](rt::Comm& world, const lin::Matrix& a)
                    -> std::function<void()> {
                  auto g = std::make_shared<grid::TunableGrid>(world, c, d);
                  auto da = std::make_shared<dist::DistMatrix>(
                      dist::DistMatrix::from_global_on_tunable(a, *g));
                  return [g, da, prec] {
                    (void)core::ca_cqr(*da, *g, {.precision = prec});
                  };
                });
          } else {
            pt = measure(
                cfg, m, n, t, reps,
                [&, pr = cfg.pr, pc = cfg.pc, b = cfg.block](
                    rt::Comm& world, const lin::Matrix& a)
                    -> std::function<void()> {
                  auto g =
                      std::make_shared<baseline::ProcGrid2d>(world, pr, pc);
                  auto da = std::make_shared<baseline::BlockCyclicMatrix>(
                      baseline::BlockCyclicMatrix::from_global(a, b, *g));
                  return [g, da] {
                    (void)baseline::pgeqrf_2d(*da, *g,
                                              {.normalize_signs = false});
                  };
                });
          }
          pt.precision = precision_name(prec);
          points.push_back(pt);
          std::printf(
              "%-10s %-8s %-5s %8lld %5lld %3d %3d %10.4f %10.4f %10.2f "
              "%10.2f %10lld %12lld %12lld\n",
              pt.algo.c_str(), pt.grid.c_str(), pt.precision.c_str(),
              static_cast<long long>(pt.m), static_cast<long long>(pt.n),
              pt.p, pt.threads, pt.seconds, pt.seconds_overlap, pt.gflops,
              pt.gflops_overlap, static_cast<long long>(pt.msgs),
              static_cast<long long>(pt.words),
              static_cast<long long>(pt.flops));
          std::fflush(stdout);
        }
      }
    }
  }

  // ---- The factorize-driver plan sweep: heuristic vs planned configs.
  // model/measured need a calibrated profile of THIS host; calibrate
  // once, quick (a fraction of a second), before any timed window.
  std::vector<PlanPoint> plan_points;
  if (!plan_modes.empty()) {
    tune::MachineProfile profile;
    bool have_profile = false;
    for (const std::string& mode : plan_modes) {
      if (mode != "heuristic" && !have_profile) {
        std::printf("\ncalibrating for planned modes (quick)...\n");
        profile = tune::calibrate({.quick = true, .reps = 2, .ranks = 4});
        have_profile = true;
      }
    }
    std::printf("\nfactorize driver sweep (whole driver timed; overlap "
                "off):\n");
    std::printf("%-10s %-5s %8s %5s %3s %3s  %-10s %-8s %10s %10s %12s\n",
                "plan_mode", "prec", "m", "n", "P", "t", "algo", "grid",
                "seconds", "GF/s", "predicted_s");
    for (const auto& [m, n] : shapes) {
      for (const int p : {4, 8}) {
        for (const int t : thread_counts) {
          for (const std::string& mode : plan_modes) {
            const core::PlanMode pm = mode == "heuristic"
                                          ? core::PlanMode::heuristic
                                      : mode == "model"
                                          ? core::PlanMode::model
                                          : core::PlanMode::measured;
            // The driver runs CholeskyQR2 (two passes), so `mixed` is
            // the interesting mixed-precision point: fp32 first-pass
            // Gram, fp64 correction pass.
            for (const Precision prec :
                 {Precision::fp64, Precision::mixed}) {
              const PlanPoint pt = measure_factorize(
                  m, n, p, t, reps, pm, mode.c_str(), prec,
                  have_profile ? &profile : nullptr);
              plan_points.push_back(pt);
              std::printf(
                  "%-10s %-5s %8lld %5lld %3d %3d  %-10s %-8s %10.4f "
                  "%10.2f %12.6f\n",
                  pt.plan_mode.c_str(), pt.precision.c_str(),
                  static_cast<long long>(pt.m),
                  static_cast<long long>(pt.n), pt.p, pt.threads,
                  pt.algo.c_str(), pt.grid.c_str(), pt.seconds, pt.gflops,
                  pt.predicted);
              std::fflush(stdout);
            }
          }
        }
      }
    }
  }

  if (json) {
    std::filesystem::path p(json_path);
    std::error_code ec;
    if (p.has_parent_path()) {
      std::filesystem::create_directories(p.parent_path(), ec);
    }
    std::ofstream out(p);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   p.string().c_str());
      return 1;
    }
    out << "{\n  \"bench\": \"bench_cacqr\",\n  \"unit\": \"seconds\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"hw_threads\": " << hw_threads << ",\n"
        << "  \"kernel_variant\": \""
        << lin::kernel::variant_name(lin::kernel::active_variant())
        << "\",\n"
        << "  \"threads_list\": [";
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      out << (i ? ", " : "") << thread_counts[i];
    }
    out << "],\n"
        << "  \"gflops_normalization\": \"2*m*n^2 - 2*n^3/3\",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& pt = points[i];
      out << "    {\"algo\": \"" << pt.algo << "\", \"grid\": \"" << pt.grid
          << "\", \"precision\": \"" << pt.precision
          << "\", \"kernel_variant\": \"" << pt.kernel_variant
          << "\", \"m\": " << pt.m << ", \"n\": " << pt.n
          << ", \"p\": " << pt.p << ", \"threads\": " << pt.threads
          << ", \"seconds\": " << pt.seconds
          << ", \"seconds_overlap\": " << pt.seconds_overlap
          << ", \"gflops\": " << pt.gflops
          << ", \"gflops_overlap\": " << pt.gflops_overlap
          << ", \"msgs\": " << pt.msgs << ", \"words\": " << pt.words
          << ", \"flops\": " << pt.flops << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"plan_sweep\": [\n";
    for (std::size_t i = 0; i < plan_points.size(); ++i) {
      const PlanPoint& pt = plan_points[i];
      out << "    {\"plan_mode\": \"" << pt.plan_mode << "\", \"algo\": \""
          << pt.algo << "\", \"grid\": \"" << pt.grid << "\", \"source\": \""
          << pt.source << "\", \"precision\": \"" << pt.precision
          << "\", \"kernel_variant\": \"" << pt.kernel_variant
          << "\", \"m\": " << pt.m << ", \"n\": " << pt.n
          << ", \"p\": " << pt.p << ", \"threads\": " << pt.threads
          << ", \"seconds\": " << pt.seconds << ", \"gflops\": " << pt.gflops
          << ", \"predicted_seconds\": " << pt.predicted << "}"
          << (i + 1 < plan_points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.close();
    if (!out) {
      std::fprintf(stderr, "error: write to %s failed\n", p.string().c_str());
      return 1;
    }
    std::printf("json written to %s\n", p.string().c_str());
  }
  return 0;
}
