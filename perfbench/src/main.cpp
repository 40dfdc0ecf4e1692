// perfbench: one workload of the repository benchmark, in one process.
//
//   perfbench --workload NAME --seed N --seconds S --mode run|trace|setup
//             [--trace-file PATH]
//
// Prints one JSON object as its last line of standard output: the
// manifest, the set-up time, the operation tally, and what the mode
// measures (run: the window's latencies and resource use; trace: the
// per-layer metrics; setup: only the set-up).  perfbench/run.py
// builds this program and combines its runs; see perfbench/README.md.

#include <sched.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "cacqr/lin/kernel.hpp"
#include "cacqr/support/json.hpp"
#include "cacqr/tune/profile.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using cacqr::support::Json;
using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string mode;
  std::string trace_file;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--mode run|trace|setup [--trace-file PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--mode") {
        a.mode = val;
      } else if (key == "--trace-file") {
        a.trace_file = val;
      } else {
        usage_error("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) ||
      (a.mode != "run" && a.mode != "trace" && a.mode != "setup")) {
    usage_error("--workload, --seed, --seconds > 0 and --mode are required");
  }
  return a;
}

/// CPUs this process may run on (what nproc reports).
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Every CACQR_* variable moves a default the workloads rely on
/// (precision, kernel, threads, overlap, transport, tracing, service
/// limits), so a timed run refuses to start when any is set.
std::vector<std::string> cacqr_env() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CACQR_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      found.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  return found;
}

Json metric_json(const std::vector<Metric>& metrics) {
  Json out = Json::object();
  for (const Metric& m : metrics) {
    Json v = Json::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    out.set(m.name, std::move(v));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage_error("unknown workload " + args.workload);

  if (const auto env = cacqr_env(); !env.empty()) {
    std::cerr << "perfbench: refusing to run with CACQR_* set:";
    for (const auto& name : env) std::cerr << ' ' << name;
    std::cerr << "\n";
    return 3;
  }
  const int nproc = usable_cpus();
  const int busy_threads =
      spec->ranks * spec->threads_per_rank + spec->generator_threads;
  if (busy_threads > nproc) {
    std::cerr << "perfbench: " << spec->name << " needs " << busy_threads
              << " threads (" << spec->ranks << " ranks x "
              << spec->threads_per_rank << " + " << spec->generator_threads
              << " generator) but only " << nproc << " CPUs are usable\n";
    return 3;
  }

  Json manifest = Json::object();
  manifest.set("workload", spec->name);
  manifest.set("seed", static_cast<double>(args.seed));
  manifest.set("seconds", args.seconds);
  manifest.set("mode", args.mode);
  manifest.set("nproc", nproc);
  manifest.set("kernel_variant", cacqr::lin::kernel::variant_name(
                                     cacqr::lin::kernel::active_variant()));
  manifest.set("host_fingerprint", cacqr::tune::host_fingerprint());
  manifest.set("ranks", spec->ranks);
  manifest.set("threads_per_rank", spec->threads_per_rank);
  manifest.set("generator_threads", spec->generator_threads);
  manifest.set("compiler", __VERSION__);

  const Mode mode = args.mode == "trace"   ? Mode::trace
                    : args.mode == "setup" ? Mode::setup
                                           : Mode::run;
  const Inputs inputs = make_inputs(*spec, args.seed);
  SpanLog spans;
  RunResult run = run_workload(*spec, inputs, mode, args.seconds, &spans);

  std::vector<Metric> metrics;
  Json details = Json::object();
  if (mode == Mode::run) {
    // Every operation of the window; run.py pools them over the run's
    // processes and computes the end-to-end figures.
    const Window& w = run.plain;
    Json lat_ms = Json::array();
    for (const double s : w.latency_s) lat_ms.push_back(1e3 * s);
    Json steal = Json::array();
    for (const double s : w.steal_ticks) steal.push_back(s);
    details.set("latency_ms", std::move(lat_ms));
    details.set("steal_ticks", std::move(steal));
    details.set("busy_s", w.busy_s);
    details.set("cpu_s", w.usage.cpu_s());
    details.set("peak_rss_mb", static_cast<double>(run.max_rss_kb) / 1024.0);
  } else if (mode == Mode::trace) {
    try {
      probe_layers(*spec, inputs, run, spans, metrics);
    } catch (const std::exception& e) {
      run.tally.fail(std::string("probe error: ") + e.what());
    }
    if (!args.trace_file.empty() && !spans.write(args.trace_file)) {
      std::cerr << "perfbench: cannot write " << args.trace_file << "\n";
      return 1;
    }
  }
  details.set("orth_err_max", run.orth_max);
  details.set("resid_err_max", run.resid_max);

  Json reasons = Json::object();
  for (const auto& [reason, count] : run.tally.reasons) {
    reasons.set(reason, static_cast<double>(count));
  }
  Json out = Json::object();
  out.set("manifest", std::move(manifest));
  out.set("setup_s", run.setup_s);
  out.set("attempted", static_cast<double>(run.tally.attempted));
  out.set("failed", static_cast<double>(run.tally.failed));
  out.set("reasons", std::move(reasons));
  out.set("metrics", metric_json(metrics));
  out.set("details", std::move(details));
  std::cout << out.dump() << std::endl;
  return 0;
}
