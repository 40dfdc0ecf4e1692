#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from this checkout and runs
one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

--trace 0 prints the end-to-end metrics.  The measured time is split over
three fresh processes, so process-level state (thread placement, allocator
layout) is sampled three times.  Latencies are taken over the operations
during which the hypervisor took no CPU time from the machine (see
undisturbed()).  setup_s is the median over 12 cold set-ups: one per timed
process and three more set-up-only processes after each.  --trace 1 prints
the per-layer metrics of one traced process and writes its spans to
.bench_out/.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("replicated_driver", "distributed_cqr2", "serve_small_panels")
PROCESSES = 3           # timed processes per --trace 0 run
SETUPS_PER_PROCESS = 3  # set-up-only processes after each timed one
DEADLINE_S = 170.0    # every run ends well inside 180 s
BUILD_DEADLINE_S = 850.0


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(targets):
    os.makedirs(OUT_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_DEADLINE_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build failed: %s" % e)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s); see %s" % (" ".join(cmd[:2]), log_path))


def run_perfbench(args, deadline):
    """Runs the perfbench binary; returns its last stdout line as JSON."""
    cmd = [os.path.join(BUILD_DIR, "perfbench")] + args
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before: " + " ".join(args))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("perfbench exited with %d" % proc.returncode, proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    return json.loads(lines[-1])


UNITS = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms",
         "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
         "cpu_ms_per_op": "ms"}
# The least-stolen operations kept when fewer than this share ran with no
# steal at all (see undisturbed()).
MIN_KEPT_SHARE = 0.2


def tail(values, min_beyond=10, count=None):
    """The latency tail: the highest percentile that still has at least
    min_beyond samples above it at a sample count of `count` (default:
    len(values)), read off the sorted values.  With count == len(values)
    that is the sample at index n - min_beyond - 1, the same rule as
    tail() in src/stats.cpp; with too few samples, the maximum.  Returns
    (value, percentile, samples of `values` above it)."""
    v = sorted(values)
    n = len(v)
    count = n if count is None else count
    if count <= min_beyond:
        return v[-1], 100.0, 0
    rank = -(-(count - min_beyond) * n // count)  # ceil, in integers
    k = min(n - 1, max(0, rank - 1))
    return v[k], 100.0 * (count - min_beyond) / count, n - 1 - k


def undisturbed(steal_ticks):
    """Indices, in run order, of the operations the end-to-end latencies
    are taken over: every operation during which the hypervisor took no
    CPU time from the machine (no steal tick), or, when those are fewer
    than MIN_KEPT_SHARE of all, that share of the operations with the
    fewest steal ticks, ties taken in run order.  The choice reads only
    the steal counter, never a latency, so a slowdown of the program's
    own shows in the figures however it is spread over the run."""
    n = len(steal_ticks)
    clean = [i for i, s in enumerate(steal_ticks) if s == 0]
    want = math.ceil(n * MIN_KEPT_SHARE)
    if len(clean) >= want:
        return clean
    least = sorted(range(n), key=lambda i: steal_ticks[i])[:want]
    return sorted(least)


def end_to_end(processes, setup_samples):
    """The end-to-end metrics of a --trace 0 run from its timed processes'
    details, over the operations of all of them pooled.  The latency
    figures are taken over the undisturbed operations of each process (all
    of them for the service, whose overlapping jobs carry no steal
    reading, and where the steal counter cannot be read): latency_p50_ms
    their median, latency_tail_ms the tail at the percentile that the
    run's whole operation count sets, throughput_ops_s those operations
    per second of their own time (completed jobs per second of measured
    time for the service).  cpu_ms_per_op is over every operation;
    peak_rss_mb is the median over the processes, and setup_s the median
    of every cold set-up the run took."""
    med = statistics.median
    kept = []
    for p in processes:
        lat, steal = p["latency_ms"], p["steal_ticks"]
        if steal and len(steal) != len(lat):
            raise ValueError("%d steal readings for %d operations"
                             % (len(steal), len(lat)))
        if steal and min(steal) >= 0:
            lat = [lat[i] for i in undisturbed(steal)]
        kept += lat
    ops = sum(len(p["latency_ms"]) for p in processes)
    steal = [x for p in processes for x in p["steal_ticks"]]
    if steal:  # one operation in flight
        throughput = 1e3 * len(kept) / sum(kept)
    else:
        throughput = ops / sum(p["busy_s"] for p in processes)
    tail_ms, tail_pct, beyond = tail(kept, count=ops)
    values = {"throughput_ops_s": throughput,
              "latency_p50_ms": med(kept),
              "latency_tail_ms": tail_ms,
              "setup_s": med(setup_samples),
              "peak_rss_mb": med(p["peak_rss_mb"] for p in processes),
              "cpu_ms_per_op": 1e3 * sum(p["cpu_s"] for p in processes) / ops}
    metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
    details = {"ops": ops, "ops_kept": len(kept),
               "ops_with_steal": sum(1 for s in steal if s > 0),
               "steal_read": bool(steal) and min(steal) >= 0,
               "latency_tail_percentile": tail_pct,
               "latency_tail_beyond": beyond,
               "setup_samples_s": list(setup_samples)}
    return metrics, details


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the statistics/check self-test")
    a = ap.parse_args()

    if a.self_test:
        build(["perfbench_selftest"])
        rc = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode
        rc_py = subprocess.run([sys.executable,
                                os.path.join(BENCH_DIR, "tests", "test_run.py")]).returncode
        sys.exit(rc or rc_py)
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if a.seconds < 1:
        ap.error("--seconds must be >= 1")

    build(["perfbench"])
    deadline = time.monotonic() + DEADLINE_S
    tag = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)

    def args(seconds):
        return ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", repr(seconds)]

    if a.trace == 0:
        runs, setups = [], []
        for _ in range(PROCESSES):
            runs.append(run_perfbench(args(a.seconds / PROCESSES) + ["--mode", "run"],
                                      deadline))
            setups += [run_perfbench(args(1) + ["--mode", "setup"], deadline)
                       for _ in range(SETUPS_PER_PROCESS)]
        processes = [r["details"] for r in runs]
        if not all(p["latency_ms"] for p in processes):
            fail("a process measured nothing: %s" % [r["reasons"] for r in runs])
        metrics, details = end_to_end(processes, [r["setup_s"] for r in runs + setups])
        runs += setups
    else:
        trace_file = os.path.join(OUT_DIR, "trace-%s.json" % tag)
        runs = [run_perfbench(args(a.seconds) + ["--mode", "trace",
                                                 "--trace-file", trace_file],
                              deadline)]
        metrics = dict(runs[0]["metrics"])
        details = {}
    for key in ("orth_err_max", "resid_err_max"):
        details[key] = max(r["details"][key] for r in runs)

    attempted = sum(int(r["attempted"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs)
    if a.trace == 0:
        metrics["ok_share"] = {
            "value": (attempted - failed) / attempted if attempted else 0.0,
            "unit": "ratio"}
    reasons = {}
    for r in runs:
        for k, v in r["reasons"].items():
            reasons[k] = reasons.get(k, 0) + int(v)

    manifest = runs[0]["manifest"]
    record = {"manifest": manifest, "details": details, "reasons": reasons,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "processes": runs}
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("# manifest " + json.dumps(manifest, sort_keys=True))
    print("# details " + json.dumps(details, sort_keys=True))
    if reasons:
        print("# failures " + json.dumps(reasons, sort_keys=True))
    for name, m in metrics.items():
        print("%-28s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": attempted >= 1 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
