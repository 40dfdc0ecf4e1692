#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "cacqr/lin/flops.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/obs/metrics.hpp"
#include "cacqr/obs/trace.hpp"
#include "transport.hpp"

namespace cacqr::rt {

using detail::CommState;
using detail::Message;
using detail::World;

namespace detail {

u64 mix64(u64 x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

World::World() = default;
World::~World() = default;

void World::abort_all() noexcept {
  if (transport) transport->abort();
}

bool World::aborted() const noexcept {
  return transport && transport->aborted();
}

namespace {

/// Drains the calling thread's pending kernel flops into the rank tally.
/// Idempotent between kernel calls (the thread-local counter is taken),
/// so retry loops may call it repeatedly without double charging.
void charge_flops_now(CommState& s) {
  const i64 f = lin::flops::take();
  if (f == 0) return;
  auto& rank_state =
      s.world->ranks[static_cast<std::size_t>(world_rank_of(s))];
  rank_state.tally.flops += f;
  rank_state.tally.time += static_cast<double>(f) * s.world->machine.gamma;
}

std::atomic<FailureProbe>& failure_probe_slot() noexcept {
  static std::atomic<FailureProbe> slot{nullptr};
  return slot;
}

}  // namespace

FailureProbe child_failure_probe() noexcept {
  return failure_probe_slot().load(std::memory_order_relaxed);
}

void send_now(CommState& s, int dest, int tag, std::span<const double> data,
              std::span<const double> tail) {
  charge_flops_now(s);
  World& w = *s.world;
  const int me_world = world_rank_of(s);
  const std::size_t words = data.size() + tail.size();
  auto& me = w.ranks[static_cast<std::size_t>(me_world)].tally;
  me.msgs += 1;
  me.words += static_cast<i64>(words);
  me.time += w.machine.alpha + static_cast<double>(words) * w.machine.beta;

  Message msg;
  msg.ctx = s.ctx;
  msg.src_world = me_world;
  msg.tag = tag;
  msg.arrival = me.time;
  msg.payload.reserve(words);
  msg.payload.assign(data.begin(), data.end());
  msg.payload.insert(msg.payload.end(), tail.begin(), tail.end());

  const int dest_world = s.members[static_cast<std::size_t>(dest)];
  if (obs::trace_on()) {
    obs::instant(w.transport->name(), "post",
                 {{"dst", static_cast<double>(dest_world)},
                  {"words", static_cast<double>(words)}});
  }
  w.transport->post(me_world, dest_world, std::move(msg));
}

bool try_recv_now(CommState& s, int src, int tag, std::span<double> data,
                  std::span<double> tail) {
  charge_flops_now(s);
  World& w = *s.world;
  const int src_world = s.members[static_cast<std::size_t>(src)];
  const int me_world = world_rank_of(s);
  const std::size_t words = data.size() + tail.size();

  Message msg;
  if (!w.transport->match(me_world, s.ctx, src_world, tag, msg)) return false;
  ensure<CommError>(msg.payload.size() == words,
                    "recv: size mismatch: expected ", words, " got ",
                    msg.payload.size());
  const auto split =
      msg.payload.begin() + static_cast<std::ptrdiff_t>(data.size());
  std::copy(msg.payload.begin(), split, data.begin());
  std::copy(split, msg.payload.end(), tail.begin());
  if (obs::trace_on()) {
    obs::instant(w.transport->name(), "match",
                 {{"src", static_cast<double>(src_world)},
                  {"words", static_cast<double>(words)}});
  }
  auto& me = w.ranks[static_cast<std::size_t>(me_world)].tally;
  me.time = std::max(me.time, msg.arrival);
  return true;
}

void rank_main(World& world, int rank, int rank_budget,
               const std::function<void(Comm&)>& body) {
  lin::flops::reset();
  lin::parallel::set_thread_budget(rank_budget);
  // Tag this thread (and, per region, its pool workers) with the rank it
  // executes, so trace events land on the rank's process row.  Restored
  // on exit (after the rank span emits): under the modeled backend the
  // thread may later run a different rank.
  struct TraceRankGuard {
    int prev;
    ~TraceRankGuard() { obs::set_trace_rank(prev); }
  } trace_rank_guard{obs::set_trace_rank(rank)};
  obs::SpanScope span("rt", "rank");
  span.arg("rank", rank);
  auto state = std::make_shared<CommState>();
  state->world = &world;
  state->ctx = 1;
  state->members.resize(static_cast<std::size_t>(world.nranks));
  for (int i = 0; i < world.nranks; ++i) {
    state->members[static_cast<std::size_t>(i)] = i;
  }
  state->myrank = rank;
  Comm comm(std::move(state));
  body(comm);
  comm.charge_local_flops();
  // Per-backend traffic totals for the metrics registry: one update per
  // rank per run (never per message -- the hot path stays untouched).
  const auto& tally =
      world.ranks[static_cast<std::size_t>(rank)].tally;
  const std::string backend = world.transport->name();
  auto& reg = obs::Registry::global();
  reg.counter("rt." + backend + ".msgs")
      .add(static_cast<u64>(tally.msgs));
  reg.counter("rt." + backend + ".words")
      .add(static_cast<u64>(tally.words));
}

}  // namespace detail

int Comm::rank() const noexcept { return state_->myrank; }

int Comm::size() const noexcept {
  return static_cast<int>(state_->members.size());
}

int Comm::world_rank() const noexcept {
  return state_->members[static_cast<std::size_t>(state_->myrank)];
}

const Machine& Comm::machine() const noexcept { return state_->world->machine; }

void Comm::charge_local_flops() const {
  detail::charge_flops_now(*state_);
}

CostCounters Comm::counters() const {
  charge_local_flops();
  return state_->world->ranks[static_cast<std::size_t>(world_rank())].tally;
}

void Comm::publish(std::span<const double> data) const {
  auto& published =
      state_->world->ranks[static_cast<std::size_t>(world_rank())].published;
  published.insert(published.end(), data.begin(), data.end());
}

void Comm::send(int dest, int tag, std::span<const double> data) const {
  ensure<CommError>(dest >= 0 && dest < size(), "send: bad dest rank ", dest);
  detail::send_now(*state_, dest, tag, data);
}

void Comm::recv(int src, int tag, std::span<double> data) const {
  ensure<CommError>(src >= 0 && src < size(), "recv: bad src rank ", src);
  // The shared wait loop drives this rank's in-flight requests while
  // blocked: the message we need may be gated on our part of another
  // collective's schedule.
  detail::wait_until(
      *state_->world, world_rank(),
      [&] { return detail::try_recv_now(*state_, src, tag, data); }, "recv");
}

void Comm::sendrecv_swap(int partner, int tag, std::span<double> data) const {
  Request r = start_sendrecv_swap(partner, tag, data);
  r.wait();
}

void Comm::progress() const {
  detail::progress_all(*state_->world, world_rank());
}

namespace {

std::atomic<bool>& overlap_flag() {
  static std::atomic<bool> flag = [] {
    const char* s = std::getenv("CACQR_OVERLAP");
    if (s == nullptr || *s == '\0') return false;
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    return end != s && *end == '\0' && v != 0;
  }();
  return flag;
}

std::atomic<TransportKind>& transport_flag() {
  static std::atomic<TransportKind> flag = [] {
    const char* s = std::getenv("CACQR_TRANSPORT");
    if (s == nullptr || *s == '\0') return TransportKind::modeled;
    if (std::strcmp(s, "modeled") == 0) return TransportKind::modeled;
    if (std::strcmp(s, "shm") == 0) return TransportKind::shm;
    if (std::strcmp(s, "mpi") == 0) return TransportKind::mpi;
    throw CommError(std::string("CACQR_TRANSPORT: unknown backend \"") + s +
                    "\" (valid: modeled, shm, mpi)");
  }();
  return flag;
}

}  // namespace

bool overlap_enabled() noexcept {
  return overlap_flag().load(std::memory_order_relaxed);
}

void set_overlap_enabled(bool on) noexcept {
  overlap_flag().store(on, std::memory_order_relaxed);
}

const char* transport_name(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::modeled: return "modeled";
    case TransportKind::shm: return "shm";
    case TransportKind::mpi: return "mpi";
  }
  return "?";
}

bool transport_available(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::modeled: return true;
    case TransportKind::shm: return true;  // fork + anonymous shared mmap
    case TransportKind::mpi:
#ifdef CACQR_HAVE_MPI
      return true;
#else
      return false;
#endif
  }
  return false;
}

TransportKind default_transport() {
  return transport_flag().load(std::memory_order_relaxed);
}

void set_default_transport(TransportKind kind) noexcept {
  transport_flag().store(kind, std::memory_order_relaxed);
}

void set_child_failure_probe(int (*probe)()) noexcept {
  detail::failure_probe_slot().store(probe, std::memory_order_relaxed);
}

Comm Comm::split(int color, int key) const {
  // Gather (color, key) from every member, then form groups locally.
  // Encoding ints as doubles is exact (|values| << 2^53).
  const int p = size();
  std::vector<double> mine = {static_cast<double>(color),
                              static_cast<double>(key)};
  std::vector<double> all(static_cast<std::size_t>(2 * p));
  allgather(mine, all);

  // Members of my color, ordered by (key, parent rank).
  struct Entry {
    int key;
    int parent_rank;
  };
  std::vector<Entry> group;
  for (int r = 0; r < p; ++r) {
    const int c = static_cast<int>(all[static_cast<std::size_t>(2 * r)]);
    const int k = static_cast<int>(all[static_cast<std::size_t>(2 * r + 1)]);
    if (c == color) group.push_back({k, r});
  }
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.parent_rank < b.parent_rank;
  });

  auto child = std::make_shared<CommState>();
  child->world = state_->world;
  child->ctx = detail::mix64(state_->ctx ^ detail::mix64(state_->split_seq) ^
                             detail::mix64(static_cast<u64>(color) + 0x51ed));
  ++state_->split_seq;
  child->members.reserve(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    const int parent_rank = group[i].parent_rank;
    child->members.push_back(
        state_->members[static_cast<std::size_t>(parent_rank)]);
    if (parent_rank == rank()) child->myrank = static_cast<int>(i);
  }
  ensure<CommError>(child->myrank >= 0, "split: caller missing from group");
  return Comm(std::move(child));
}

RunOutput Runtime::run_collect(int nranks,
                               const std::function<void(Comm&)>& body,
                               Machine machine, int threads_per_rank,
                               std::optional<TransportKind> transport) {
  ensure<CommError>(nranks >= 1, "Runtime::run: need at least one rank");
  // Per-rank kernel worker budget: explicit, or the caller's budget spread
  // evenly so P ranks x T workers never oversubscribe what the caller had.
  const int rank_budget =
      threads_per_rank > 0
          ? threads_per_rank
          : std::max(1, lin::parallel::thread_budget() / nranks);
  const TransportKind kind = transport.value_or(default_transport());
  switch (kind) {
    case TransportKind::modeled:
      return detail::run_modeled(nranks, body, machine, rank_budget);
    case TransportKind::shm:
      return detail::run_shm(nranks, body, machine, rank_budget);
    case TransportKind::mpi:
#ifdef CACQR_HAVE_MPI
      return detail::run_mpi(nranks, body, machine, rank_budget);
#else
      throw CommError(
          "Runtime::run: transport \"mpi\" not compiled in (build with "
          "-DCACQR_WITH_MPI=ON and an MPI installation)");
#endif
  }
  throw CommError("Runtime::run: unknown transport kind");
}

std::vector<CostCounters> Runtime::run(
    int nranks, const std::function<void(Comm&)>& body, Machine machine,
    int threads_per_rank, std::optional<TransportKind> transport) {
  return run_collect(nranks, body, machine, threads_per_rank, transport)
      .counters;
}

}  // namespace cacqr::rt
