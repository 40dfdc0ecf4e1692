#pragma once
/// \file trace.hpp
/// \brief The benchmark's own span log and the lock-step timer its rank
///        threads share.
///
/// Spans wrap the benchmark's calls into each layer's public functions
/// (the program itself stays uninstrumented): name, rank/thread row,
/// start, end, the span that caused it, and the operation it belongs to.
/// They are kept in memory and written out as one Chrome/Perfetto trace
/// file when the run ends; the per-layer metrics are medians over them.

#include <barrier>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

struct Span {
  std::string name;
  int row = 0;  ///< rank (or -1 for the generator/main thread)
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span
  std::uint64_t op = 0;      ///< operation (request) the span serves
};

class SpanLog {
 public:
  /// Records one finished span; returns its id.  Thread-safe.
  std::uint64_t add(std::string name, int row, double t0, double t1,
                    std::uint64_t parent = 0, std::uint64_t op = 0);
  /// Durations in milliseconds of every span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// Writes the spans as Chrome trace events (Perfetto-loadable).
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// A barrier for the P rank threads of one world whose last arrival
/// stamps the hypervisor's steal counter, the time and the process
/// resource usage.  sync() returns the time stamp, so
/// `t0 = sync(); op(); t1 = sync();` measures from the moment every rank
/// is ready to the return of the slowest rank.
class Lockstep {
 public:
  explicit Lockstep(int ranks) : bar_(ranks, Stamp{this}) {}
  Lockstep(const Lockstep&) = delete;
  Lockstep& operator=(const Lockstep&) = delete;

  double sync() {
    bar_.arrive_and_wait();
    return stamp_;
  }
  /// Usage stamped by the latest sync() (read before the next one).
  [[nodiscard]] const Usage& usage() const noexcept { return usage_; }
  /// steal_ticks() stamped by the latest sync().
  [[nodiscard]] std::int64_t steal() const noexcept { return steal_; }

 private:
  struct Stamp {
    Lockstep* self;
    void operator()() noexcept {
      self->steal_ = steal_ticks();
      self->stamp_ = now_s();
      self->usage_ = Usage::now();
    }
  };
  double stamp_ = 0.0;
  Usage usage_;
  std::int64_t steal_ = -1;
  std::barrier<Stamp> bar_;
};

}  // namespace perfbench
