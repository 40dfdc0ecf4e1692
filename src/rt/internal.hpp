#pragma once
/// \file internal.hpp
/// \brief Shared internals of the rt module (world state, the transport
///        seam, and the request engine behind the nonblocking
///        collectives).

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cacqr/rt/comm.hpp"

namespace cacqr::rt::detail {

/// One in-flight message.  `arrival` is the sender's modeled clock after
/// charging alpha + n*beta: the earliest time the receiver can have it
/// (real backends carry the stamp on the wire, so the modeled clock stays
/// backend-independent).
struct Message {
  u64 ctx = 0;
  int src_world = -1;
  int tag = 0;
  double arrival = 0.0;
  std::vector<double> payload;
};

/// A rank's pending-message queue: messages that crossed the transport
/// but have not been matched by a Recv yet.  Only the owning rank touches
/// it (the modeled backend wraps it in a lock; process backends need
/// none).
struct PendingQueue {
  std::deque<Message> queue;
  u64 arrivals = 0;  ///< messages ever enqueued; wait loops sleep on changes

  /// Pops the first entry matching (ctx, src_world, tag): FIFO per
  /// channel.
  bool match(u64 ctx, int src_world, int tag, Message& out) {
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->ctx == ctx && it->src_world == src_world && it->tag == tag) {
        out = std::move(*it);
        queue.erase(it);
        return true;
      }
    }
    return false;
  }
};

struct RequestState;
struct Transport;

/// Per-rank mutable state, touched only by the owning rank thread.
struct RankState {
  CostCounters tally;
  /// In-flight requests of this rank, in start order.  Progress and the
  /// blocking wait loops drive every entry, so a rank blocked on one
  /// collective still completes its part of the others (no deadlock from
  /// rank-dependent wait order).
  std::vector<RequestState*> active;
  /// Result blob accumulated by Comm::publish (returned to the launcher's
  /// caller by Runtime::run_collect, crossing the process boundary under
  /// multi-process backends).
  std::vector<double> published;
};

/// Whole-run shared state.  Under the modeled backend one World is shared
/// by all rank threads; under process backends each rank process holds
/// its own copy and only ranks[world_rank] is populated.
struct World {
  World();
  ~World();
  int nranks = 0;
  Machine machine;
  std::unique_ptr<Transport> transport;
  std::vector<RankState> ranks;

  /// Sticky run-wide abort: wakes every blocked receiver so it can
  /// unwind with AbortError.
  void abort_all() noexcept;
  [[nodiscard]] bool aborted() const noexcept;
};

/// Per-rank view of one communicator.  Copies of a Comm share this state,
/// so the collective-operation sequence number stays consistent.
struct CommState {
  World* world = nullptr;
  u64 ctx = 0;            ///< communicator identity, equal on all members
  std::vector<int> members;  ///< world ranks, ordered by comm rank
  int myrank = -1;           ///< my rank within `members`
  u64 op_seq = 0;  ///< per-comm collective sequence (tag disambiguation)
  u64 split_seq = 0;  ///< per-comm split counter (child identity derivation)
};

/// 64-bit mix for communicator identity derivation.
[[nodiscard]] u64 mix64(u64 x) noexcept;

/// Test-harness hook installed via rt::set_child_failure_probe; process
/// backends sample it around the rank body so in-child assertion failures
/// propagate to the parent.  Null when unset.
using FailureProbe = int (*)();
[[nodiscard]] FailureProbe child_failure_probe() noexcept;

/// World rank of the caller of a CommState.
[[nodiscard]] inline int world_rank_of(const CommState& s) noexcept {
  return s.members[static_cast<std::size_t>(s.myrank)];
}

/// Reserves a fresh internal tag for one collective invocation.
int next_internal_tag(CommState& s);

// ------------------------------------------------------- p2p primitives
// (comm.cpp)  Both charge exactly like the blocking calls: send adds
// alpha/beta/clock at execution, a successful try-receive jumps the clock
// to the arrival stamp.  Both drain pending kernel flops first.

/// Eager buffered send of `data` followed by `tail` as one message: never
/// blocks.
void send_now(CommState& s, int dest, int tag, std::span<const double> data,
              std::span<const double> tail = {});

/// Nonblocking receive: delivers and charges the first queued message
/// matching (ctx, src, tag) and returns true, or returns false untouched.
/// The payload fills `data`, then `tail`.
bool try_recv_now(CommState& s, int src, int tag, std::span<double> data,
                  std::span<double> tail = {});

// ------------------------------------------------------- request engine

/// One step of a collective schedule.  Steps execute strictly in order;
/// Send and Local steps never block, a Recv step parks the request until
/// its message arrives.
struct Step {
  enum class Kind { Send, Recv, Local };
  Kind kind = Kind::Local;
  int peer = -1;          ///< comm rank: Send destination / Recv source
  double* ptr = nullptr;  ///< payload: send source / receive destination
  i64 len = 0;
  /// Local step body; on a Recv step, runs right after delivery (the
  /// reduction accumulate of allreduce).  Local work charges nothing,
  /// exactly as in the blocking schedules.
  std::function<void()> local;
  /// Optional second payload segment: one message carries [ptr, ptr+len)
  /// followed by [ptr2, ptr2+len2) (the wrap-around steps of the in-place
  /// Bruck allgather).  Charged as a single message of len + len2 words.
  double* ptr2 = nullptr;
  i64 len2 = 0;
};

/// An in-flight collective: its schedule plus owned scratch.  The steps
/// hold raw pointers into `tmp` and the caller's buffer, so `tmp` may not
/// be resized after the schedule is built, and the caller's buffer must
/// stay alive until completion.
struct RequestState {
  std::shared_ptr<CommState> comm;
  int tag = 0;
  std::vector<double> tmp;  ///< reduction / fold scratch (allreduce)
  std::vector<Step> steps;
  std::size_t next = 0;  ///< first unexecuted step
  bool registered = false;

  // Span-tracing stamps (obs/trace.hpp), set by trace_stamp_request at
  // start_* when tracing is on.  The wall start plus the msgs/words/clock
  // snapshot let the completion event carry the collective's charged
  // traffic and modeled-clock window next to its wall time.  Null name =
  // untraced (tracing off, or a trivial P==1/empty collective).
  const char* trace_name = nullptr;
  u64 trace_t0 = 0;
  i64 trace_msgs0 = 0;
  i64 trace_words0 = 0;
  double trace_clock0 = 0.0;

  [[nodiscard]] bool done() const noexcept { return next >= steps.size(); }
};

/// Stamps `r` for span tracing (no-op when tracing is off).  Call after
/// the schedule is built and before start_request.
void trace_stamp_request(RequestState& r, const char* name);

// (request.cpp)  All of these run on the owning rank thread only.

/// Registers `r` with its rank and drives it as far as possible without
/// blocking (eager sends start the collective immediately).
void start_request(RequestState& r);

/// Drives `r` as far as possible without blocking; unregisters and
/// returns true when it completes.
bool advance_request(RequestState& r);

/// Drives every in-flight request of `world_rank` without blocking.
void progress_all(World& w, int world_rank);

/// Blocks until `r` completes, driving all of the rank's in-flight
/// requests meanwhile and parking on the transport between arrivals.
void wait_request(RequestState& r);

/// The shared blocking loop under wait_request and Comm::recv: repeats
/// {snapshot transport arrivals; drive every in-flight request; re-check
/// `ready`; park on the transport until a new arrival} until `ready()`
/// returns true.  `ready` may have side effects (Comm::recv's consumes
/// its message); it is called at most twice per iteration, before and
/// after the progress sweep.  Throws AbortError("<who>: run aborted by
/// another rank") once the world aborts.
void wait_until(World& w, int world_rank, const std::function<bool()>& ready,
                const char* who);

/// Removes `r` from its rank's active list (no-op if not registered).
void unregister_request(RequestState& r);

// ------------------------------------------- collective schedule builders
// (collectives.cpp)  Each appends the caller's exact blocking schedule --
// same peers, same payload sizes, same order -- as steps on `r`.

void build_bcast(RequestState& r, std::span<double> data, int root);
void build_allreduce(RequestState& r, std::span<double> data);
/// Allreduce of an fp32 payload riding in whole 8-byte words (two floats
/// per word, lin::MatrixF::wire()).  Same schedule, peers, and word
/// counts as build_allreduce on `words`; only the combine differs (it
/// adds float-wise).  chunk partitioning is word-granular, so float
/// pairs never split across chunks.
void build_allreduce_f32(RequestState& r, std::span<double> words);
void build_allgather(RequestState& r, std::span<const double> mine,
                     std::span<double> all);
void build_sendrecv_swap(RequestState& r, int partner,
                         std::span<double> data);

}  // namespace cacqr::rt::detail
