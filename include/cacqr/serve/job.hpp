#pragma once
/// \file job.hpp
/// \brief Job types of the factorization service: options, results, and
///        the future-like handle clients wait on.
///
/// A job is one factorize request owned by the service after admission.
/// Clients interact only through JobHandle, which is safe to wait on from
/// any thread; the scheduler (service.hpp) fills the result and signals
/// the handle exactly once, when the job reaches a terminal status.

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/matrix.hpp"
#include "cacqr/support/precision.hpp"
#include "cacqr/support/timer.hpp"

namespace cacqr::serve {

/// Admission classes: the scheduler always drains the highest non-empty
/// class first, FIFO within a class (deterministic ordering contract).
enum class Priority { high = 0, normal = 1, low = 2 };

/// Job lifecycle.  `rejected` is terminal and assigned at submit time
/// (queue full); `failed` carries the job's own error (e.g. NotSpdError
/// with auto_shift off) and never poisons other jobs.
enum class JobStatus { queued, running, done, failed, rejected };

[[nodiscard]] constexpr const char* job_status_name(JobStatus s) noexcept {
  switch (s) {
    case JobStatus::queued: return "queued";
    case JobStatus::running: return "running";
    case JobStatus::done: return "done";
    case JobStatus::failed: return "failed";
    case JobStatus::rejected: return "rejected";
  }
  return "?";
}

/// Per-job factorization options: the FactorizeOptions subset a service
/// job can carry, plus its admission class.  Jobs agreeing on
/// (cols, precision, passes, auto_shift) and eligible for the batched
/// lane (see FactorizeService) may be micro-batched together; the kernel
/// variant needs no key because it is process-wide, and base_case none
/// because the batched lane runs on the c = 1 grid, which ignores it.
struct JobOptions {
  int passes = 2;
  bool auto_shift = true;
  i64 base_case = 0;
  Precision precision = Precision::fp64;
  core::PlanMode plan_mode = core::PlanMode::heuristic;
  int c = 0;  ///< explicit grid (with d): forces the ordinary driver
  int d = 0;
  Priority priority = Priority::normal;
};

/// What a finished job reports.  Q/R are bitwise identical to the same
/// input run standalone (batched.hpp states the argument).
struct JobResult {
  lin::Matrix q;
  lin::Matrix r;
  std::string algo;          ///< the driver's pick ("ca_cqr" on the batched lane)
  bool used_shift = false;
  bool batched = false;      ///< executed inside a micro-batch of > 1 jobs
  std::size_t batch_size = 1;
  double queue_seconds = 0.0;  ///< admission -> dispatch
  double exec_seconds = 0.0;   ///< dispatch -> completion (its round's sweep)
};

namespace detail {

/// The service-owned job record.  `mu`/`cv` guard status + result; the
/// input panel is copied at submit so the caller's matrix can die
/// immediately.  Engine ranks read `a` concurrently without locking --
/// it is immutable after admission.
struct Job {
  lin::Matrix a;
  JobOptions opts;
  u64 seq = 0;  ///< admission order (global, monotone)
  WallTimer since_submit;
  double queue_seconds = 0.0;  ///< stamped by the scheduler at dispatch
  u64 trace_id = 0;  ///< obs async-span id (0 = tracing off at submit)
  /// Trace lifecycle: 0 none, 1 "queued" span open, 2 "run" span open,
  /// 3 ended.  Exchanged by the emitter so racing finishers (normal
  /// completion vs the engine-death drain) close each span exactly once.
  std::atomic<int> trace_state{0};

  std::mutex mu;
  std::condition_variable cv;
  JobStatus status = JobStatus::queued;
  JobResult result;
  std::exception_ptr error;

  /// Terminal transition + wakeup (scheduler side).  First terminal
  /// status wins: the engine-death drain may race a result already
  /// delivered, and must not overwrite it.  Returns whether THIS call
  /// performed the transition (so exactly one caller emits the job's
  /// terminal trace/metrics events).
  bool finish(JobStatus terminal, JobResult res, std::exception_ptr err) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (status == JobStatus::done || status == JobStatus::failed ||
          status == JobStatus::rejected) {
        return false;
      }
      status = terminal;
      result = std::move(res);
      error = std::move(err);
    }
    cv.notify_all();
    return true;
  }
};

}  // namespace detail

/// Future-like handle to a submitted job.  Copyable (shared ownership of
/// the record); any thread may wait.
class JobHandle {
 public:
  JobHandle() = default;

  /// Blocks until the job reaches a terminal status and returns it.
  JobStatus wait() const {
    std::unique_lock<std::mutex> lock(job_->mu);
    job_->cv.wait(lock, [&] {
      return job_->status == JobStatus::done ||
             job_->status == JobStatus::failed ||
             job_->status == JobStatus::rejected;
    });
    return job_->status;
  }

  /// Current status without blocking.
  [[nodiscard]] JobStatus status() const {
    const std::lock_guard<std::mutex> lock(job_->mu);
    return job_->status;
  }

  /// Waits, then returns the result; a failed or rejected job rethrows
  /// its stored error here (NotSpdError for a breakdown with auto_shift
  /// off, Error for backpressure rejection).
  [[nodiscard]] const JobResult& result() const {
    if (wait() != JobStatus::done) std::rethrow_exception(job_->error);
    return job_->result;
  }

  /// Waits, then returns the stored error (nullptr when done cleanly).
  [[nodiscard]] std::exception_ptr error() const {
    wait();
    const std::lock_guard<std::mutex> lock(job_->mu);
    return job_->error;
  }

 private:
  friend class FactorizeService;
  explicit JobHandle(std::shared_ptr<detail::Job> job)
      : job_(std::move(job)) {}
  std::shared_ptr<detail::Job> job_;
};

}  // namespace cacqr::serve
