#pragma once
/// \file stats.hpp
/// \brief The benchmark's statistics helpers for the per-layer metrics:
///        the median, the tail rule, failure accounting and getrusage
///        deltas.  Tested by tests/selftest.cpp.  The end-to-end metrics
///        are combined in run.py (tested by tests/test_run.py).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median of a non-empty sample (mean of the two middle values when the
/// size is even), like Python's statistics.median.
[[nodiscard]] double median(std::vector<double> v);

/// The latency tail: the highest percentile that still has at least
/// `min_beyond` samples above it.  With n sorted samples that is the
/// sample at index n - min_beyond - 1, which sits at percentile
/// 100 (n - min_beyond) / n (n = 1000 -> p99, n = 100 -> p90).  With
/// fewer than min_beyond + 1 samples no percentile qualifies; the maximum
/// is returned with `beyond` < min_beyond so the shortfall is visible.
/// run.py's tail() is the same rule.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;   ///< samples strictly above the reported one
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v, std::size_t min_beyond = 10);

/// Failure accounting: every operation the benchmark issues is attempted
/// once and either succeeds or fails with a reason (a thrown error, a
/// rejected job, an output outside the check bounds).  Nothing is
/// dropped: attempted == succeeded + failed always.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> reasons;

  void pass() { ++attempted; }
  void fail(const std::string& reason) {
    ++attempted;
    ++failed;
    ++reasons[reason];
  }
};

/// Process resource usage (getrusage(RUSAGE_SELF)): CPU time, page
/// faults and context switches; max_rss_kb is the process high-water
/// resident set, which a delta keeps from its later operand.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minflt = 0;
  std::int64_t nvcsw = 0;   ///< voluntary context switches (blocking)
  std::int64_t nivcsw = 0;  ///< involuntary ones (preemption)
  std::int64_t max_rss_kb = 0;

  [[nodiscard]] static Usage now();
  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
  [[nodiscard]] std::int64_t ctxsw() const { return nvcsw + nivcsw; }
  Usage& operator+=(const Usage& d);
};
/// after - before for the counters; max_rss_kb is after's.
[[nodiscard]] Usage operator-(const Usage& after, const Usage& before);

/// CPU time the hypervisor has taken from this machine's CPUs so far
/// (the steal column of /proc/stat, summed over CPUs), in clock ticks
/// (USER_HZ, 10 ms on Linux).  -1 when it cannot be read.  A rise over
/// an operation marks it as disturbed from outside the program.
[[nodiscard]] std::int64_t steal_ticks();

}  // namespace perfbench
