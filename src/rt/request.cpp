/// \file request.cpp
/// \brief The request engine driving nonblocking collectives.
///
/// A request is a precomputed step list (internal.hpp) executed strictly
/// in order: Send and Local steps never block, a Recv step parks the
/// request until its message shows up.  Everything here runs on the
/// owning rank thread -- progress is cooperative, there is no progress
/// thread -- so the per-rank tallies and the modeled clock are charged
/// from exactly one thread, in step order, just like the blocking
/// schedules they replace.
///
/// Deadlock discipline: wait_request and the blocking recv loop drive ALL
/// of the rank's in-flight requests, not just their target.  A rank
/// blocked waiting on collective B therefore still executes its
/// point-to-point share of collective A, which is what makes
/// rank-dependent wait orders (and overlap windows that complete requests
/// late) safe.

#include <algorithm>
#include <exception>
#include <string>

#include "cacqr/obs/trace.hpp"
#include "transport.hpp"

namespace cacqr::rt {

namespace detail {

void trace_stamp_request(RequestState& r, const char* name) {
  if (!obs::trace_on() || r.done()) return;
  const auto& tally = r.comm->world->ranks[static_cast<std::size_t>(
                          world_rank_of(*r.comm))].tally;
  r.trace_name = name;
  r.trace_t0 = obs::now_ns();
  r.trace_msgs0 = tally.msgs;
  r.trace_words0 = tally.words;
  r.trace_clock0 = tally.time;
}

namespace {

/// One completion span per collective, blocking or not: [start_*,
/// last-step-retired] wall time, with the request's charged msgs/words
/// and its modeled-clock window as args (microseconds, to match ts/dur).
void trace_emit_request(const RequestState& r) {
  if (r.trace_name == nullptr || !obs::trace_on()) return;
  const auto& tally = r.comm->world->ranks[static_cast<std::size_t>(
                          world_rank_of(*r.comm))].tally;
  obs::complete(
      "rt", r.trace_name, r.trace_t0, obs::now_ns(),
      {{"msgs", static_cast<double>(tally.msgs - r.trace_msgs0)},
       {"words", static_cast<double>(tally.words - r.trace_words0)},
       {"mclk0_us", r.trace_clock0 * 1e6},
       {"mclk1_us", tally.time * 1e6}});
}

}  // namespace

void unregister_request(RequestState& r) {
  if (!r.registered) return;
  auto& active = r.comm->world->ranks[static_cast<std::size_t>(
                     world_rank_of(*r.comm))].active;
  auto it = std::find(active.begin(), active.end(), &r);
  if (it != active.end()) active.erase(it);
  r.registered = false;
}

bool advance_request(RequestState& r) {
  try {
    while (r.next < r.steps.size()) {
      Step& s = r.steps[r.next];
      switch (s.kind) {
        case Step::Kind::Send:
          send_now(*r.comm, s.peer, r.tag,
                   {s.ptr, static_cast<std::size_t>(s.len)},
                   {s.ptr2, static_cast<std::size_t>(s.len2)});
          break;
        case Step::Kind::Local:
          if (s.local) s.local();
          break;
        case Step::Kind::Recv:
          if (!try_recv_now(*r.comm, s.peer, r.tag,
                            {s.ptr, static_cast<std::size_t>(s.len)},
                            {s.ptr2, static_cast<std::size_t>(s.len2)})) {
            return false;
          }
          if (s.local) s.local();
          break;
      }
      ++r.next;
    }
  } catch (...) {
    // A failed step poisons the request: a throwing Recv has already
    // consumed (and discarded) its message, so retrying the step would
    // match unrelated later traffic on the same channel; and the thrower
    // may be mid-start_*, where an entry left in the active list would
    // dangle once the enclosing unique_ptr unwinds.
    r.next = r.steps.size();
    unregister_request(r);
    throw;
  }
  trace_emit_request(r);
  unregister_request(r);
  return true;
}

void progress_all(World& w, int world_rank) {
  // A nonblocking poll must still observe aborts: a rank spinning on
  // test()/progress() whose partner died would otherwise spin forever
  // (its pending Recv steps can never be satisfied).
  if (w.aborted()) {
    throw AbortError("progress: run aborted by another rank");
  }
  auto& active = w.ranks[static_cast<std::size_t>(world_rank)].active;
  // advance_request erases exactly its own (current) entry on completion,
  // shifting the next request into slot i.
  std::size_t i = 0;
  while (i < active.size()) {
    if (!advance_request(*active[i])) ++i;
  }
}

void start_request(RequestState& r) {
  if (r.done()) return;  // trivial collective (p == 1 / empty payload)
  auto& active = r.comm->world->ranks[static_cast<std::size_t>(
                     world_rank_of(*r.comm))].active;
  active.push_back(&r);
  r.registered = true;
  advance_request(r);
}

void wait_until(World& w, int world_rank, const std::function<bool()>& ready,
                const char* who) {
  Transport& tr = *w.transport;
  const auto abort_message = [who] {
    return std::string(who) + ": run aborted by another rank";
  };
  for (;;) {
    const u64 seen = tr.arrivals(world_rank);
    if (tr.aborted()) throw AbortError(abort_message());
    if (ready()) return;
    progress_all(w, world_rank);
    if (ready()) return;
    if (obs::trace_on()) {
      // One span per park on the transport: where blocked time is spent.
      const u64 t0 = obs::now_ns();
      tr.wait_arrivals(world_rank, seen);
      obs::complete(tr.name(), "wait", t0, obs::now_ns());
    } else {
      tr.wait_arrivals(world_rank, seen);
    }
    if (tr.aborted()) throw AbortError(abort_message());
  }
}

void wait_request(RequestState& r) {
  wait_until(*r.comm->world, world_rank_of(*r.comm),
             [&r] { return r.done(); }, "wait");
}

}  // namespace detail

Request::Request() noexcept : uncaught_(std::uncaught_exceptions()) {}

Request::Request(std::unique_ptr<detail::RequestState> state) noexcept
    : state_(std::move(state)), uncaught_(std::uncaught_exceptions()) {}

Request::Request(Request&& other) noexcept = default;

namespace {

/// Completes an in-flight request so its schedule never dangles in the
/// rank's active list.  AbortError is always swallowed (an aborting run
/// tears down mid-collective by design).  Any other failure while
/// draining (e.g. mismatched payload sizes) is a real bug: it is
/// rethrown when `may_throw`, and either way the world is aborted so
/// partner ranks cannot hang on our unexecuted steps.
void drain(detail::RequestState* r, bool may_throw) {
  if (r == nullptr) return;
  if (!r->done()) {
    try {
      detail::wait_request(*r);
    } catch (const AbortError&) {
      // Partners are being torn down too; just deregister below.
    } catch (...) {
      detail::unregister_request(*r);
      r->comm->world->abort_all();
      if (may_throw) throw;
    }
  }
  detail::unregister_request(*r);
}

}  // namespace

Request& Request::operator=(Request&& other) noexcept {
  if (this != &other) {
    drain(state_.get(), /*may_throw=*/false);
    state_ = std::move(other.state_);
    uncaught_ = other.uncaught_;
  }
  return *this;
}

Request::~Request() noexcept(false) {
  // Propagate real drain errors out of a normal scope exit; stay silent
  // only when an exception NEWER than this handle is unwinding the stack
  // (comparison against the construction-time count, so cleanup code
  // running under unrelated unwinding still reports its own failures).
  drain(state_.get(), /*may_throw=*/std::uncaught_exceptions() <= uncaught_);
}

bool Request::valid() const noexcept { return state_ != nullptr; }

void Request::wait() {
  if (state_ == nullptr || state_->done()) return;
  detail::wait_request(*state_);
}

bool Request::test() {
  if (state_ == nullptr || state_->done()) return true;
  detail::progress_all(*state_->comm->world,
                       detail::world_rank_of(*state_->comm));
  return state_->done();
}

}  // namespace cacqr::rt
