#include "mpi/comm.hpp"

#include <algorithm>
#include <cassert>
#include <new>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/frame_pool.hpp"

namespace pcd::mpi {

namespace {

bool envelope_matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == CommBase::kAnySource || want_src == src) &&
         (want_tag == CommBase::kAnyTag || want_tag == tag);
}

}  // namespace

Comm::Comm(machine::Cluster& cluster, std::vector<int> node_ids, CostParams costs,
           trace::Tracer* tracer)
    : CommBase(costs, tracer),
      cluster_(cluster),
      engine_(cluster.engine()),
      node_ids_(std::move(node_ids)) {
  if (node_ids_.empty()) throw std::invalid_argument("communicator needs >= 1 rank");
  for (int id : node_ids_) {
    if (id < 0 || id >= cluster.size()) {
      throw std::invalid_argument("communicator rank mapped to invalid node");
    }
  }
  mailboxes_.resize(node_ids_.size());
  init_ranks(size());
}

void Comm::note_match(int src, int dst, int tag, std::int64_t bytes) {
  if (digest_ == nullptr) return;
  const std::uint64_t rec[5] = {
      static_cast<std::uint64_t>(engine_.now()), static_cast<std::uint64_t>(src),
      static_cast<std::uint64_t>(dst), static_cast<std::uint64_t>(tag),
      static_cast<std::uint64_t>(bytes)};
  digest_->fold_record(rec, 5);
}

double CommBase::protocol_cycles(std::int64_t bytes) const {
  return costs_.per_msg_cycles + costs_.per_kb_cycles * (static_cast<double>(bytes) / 1024.0);
}

double CommBase::speed_ratio(int rank) {
  auto& cpu = node(rank).cpu();
  return static_cast<double>(cpu.frequency_mhz()) / cpu.table().highest().freq_mhz;
}

// ---- point-to-point --------------------------------------------------------
//
// Each message side is one record, stepped by engine, CPU and network
// callbacks.  The site labels are a contract: the first step of each side
// is scheduled as "process.spawn" and each wakeup of a parked side as
// "event.set", from the dispatch that unparks it — the events, times,
// parents and labels a send and a receive coroutine would produce.  The
// event digest folds (t, seq, parent, site), so digest roots and goldens
// depend on it; tests/test_mpi.cpp MpiPinned.* pins every branch.

// Header shared by both sides.  A record is its request's state: the
// Requests isend/irecv return are handles on it, and the protocol holds one
// more reference, taken by adopt() and dropped by release(), so a Request
// dropped mid-flight never cuts the protocol short.
struct Comm::Record : RequestState {
  explicit Record(Comm& c) : RequestState(c.engine_), comm(&c) {}
  Comm* comm;
  Record* prev = nullptr;  // Comm::live_ list
  Record* next = nullptr;
};

struct Comm::SendRecord : Record {
  using Record::Record;
  int rank = 0;
  int dst = 0;
  int tag = 0;
  bool recv_posted = false;    // matched: a rendezvous may go on the wire
  bool awaiting_grant = false;  // rendezvous send parked on recv_posted
  bool delivered = false;
  bool queued = false;          // in the destination's unexpected queue
  std::int64_t size = 0;        // message bytes
  std::int64_t log_seq = -1;    // index into the tracer's message log
  RecvRecord* peer = nullptr;   // matched receive still waiting for delivery
};

struct Comm::RecvRecord : Record {
  using Record::Record;
  int rank = 0;
  int src = kAnySource;  // the post (wildcards allowed)
  int tag = kAnyTag;
  bool delivered = false;          // the matched message has arrived
  bool awaiting_delivery = false;  // parked until the send delivers
  std::int64_t size = 0;           // the matched message's bytes
  std::int64_t log_seq = -1;
};

namespace {

template <typename T>
void free_pooled(T* p) noexcept {
  p->~T();
  sim::pool_free(p, sizeof(T));
}

}  // namespace

void CommBase::Request::destroy(RequestState* s) noexcept {
  switch (s->kind) {
    case RequestState::Kind::Standalone:
      free_pooled(s);
      return;
    case RequestState::Kind::Send:
      free_pooled(static_cast<Comm::SendRecord*>(s));
      return;
    case RequestState::Kind::Recv:
      free_pooled(static_cast<Comm::RecvRecord*>(s));
      return;
  }
}

CommBase::Request CommBase::standalone_request(sim::Engine& engine) {
  return Request(::new (sim::pool_alloc(sizeof(RequestState))) RequestState(engine));
}

Comm::~Comm() {
  // Drop the protocol's reference on what is still in flight (an abandoned
  // or failed run).  Pending engine events, CPU work and transfers may
  // still name these records; nothing runs them once the communicator is
  // gone.  A record some Request still holds lives until that handle goes.
  while (live_ != nullptr) release(*live_);
}

std::size_t Comm::live_records() const {
  std::size_t n = 0;
  for (const Record* r = live_; r != nullptr; r = r->next) ++n;
  return n;
}

void Comm::adopt(Record& rec, RequestState::Kind kind) {
  rec.kind = kind;
  ++rec.refs;  // the protocol's reference
  rec.next = live_;
  if (live_ != nullptr) live_->prev = &rec;
  live_ = &rec;
}

void Comm::release(Record& rec) {
  if (rec.prev != nullptr) {
    rec.prev->next = rec.next;
  } else {
    live_ = rec.next;
  }
  if (rec.next != nullptr) rec.next->prev = rec.prev;
  Request::unref(&rec);  // frees the record unless a Request still holds it
}

CommBase::Request Comm::isend(int rank, int dst, int tag, std::int64_t bytes) {
  assert(rank >= 0 && rank < size() && dst >= 0 && dst < size());
  auto* rec = ::new (sim::pool_alloc(sizeof(SendRecord))) SendRecord(*this);
  rec->rank = rank;
  rec->dst = dst;
  rec->tag = tag;
  rec->size = bytes;
  adopt(*rec, RequestState::Kind::Send);
  engine_.schedule_in(0, sim::Continuation{&send_start, rec}, "process.spawn");
  return Request(rec);
}

CommBase::Request Comm::irecv(int rank, int src, int tag) {
  assert(rank >= 0 && rank < size());
  auto* rec = ::new (sim::pool_alloc(sizeof(RecvRecord))) RecvRecord(*this);
  rec->rank = rank;
  rec->src = src;
  rec->tag = tag;
  adopt(*rec, RequestState::Kind::Recv);
  engine_.schedule_in(0, sim::Continuation{&recv_start, rec}, "process.spawn");
  return Request(rec);
}

void Comm::send_start(void* p) {
  auto& s = *static_cast<SendRecord*>(p);
  Comm& c = *s.comm;
  // The send's causal anchor: the sender enters the protocol.
  if (c.tracer_ != nullptr) s.log_seq = c.tracer_->log_send(s.rank, s.dst, s.tag, s.size);
  auto& cpu = c.node(s.rank).cpu();
  cpu.run(cpu.run_commproc_cycles(c.protocol_cycles(s.size)), {&send_announce, &s});
}

void Comm::send_announce(void* p) {
  // Announce to the receiver: match a posted receive or queue as unexpected.
  auto& s = *static_cast<SendRecord*>(p);
  Comm& c = *s.comm;
  auto& recvs = c.mailboxes_[static_cast<std::size_t>(s.dst)].recvs;
  const auto it = std::find_if(recvs.begin(), recvs.end(), [&](const RecvRecord* r) {
    return envelope_matches(r->src, r->tag, s.rank, s.tag);
  });
  if (it != recvs.end()) {
    RecvRecord& r = **it;
    recvs.erase(it);
    c.match(s, r);
    c.engine_.schedule_in(0, sim::Continuation{&recv_matched, &r}, "event.set");
    s.recv_posted = true;
    c.note_match(s.rank, s.dst, s.tag, s.size);
  } else {
    s.queued = true;
    c.mailboxes_[static_cast<std::size_t>(s.dst)].sends.push_back(&s);
  }
  // Rendezvous: large messages stall until the receive is posted.
  if (s.size > c.costs_.eager_limit && !s.recv_posted) {
    s.awaiting_grant = true;
    return;
  }
  send_transfer(&s);
}

void Comm::send_transfer(void* p) {
  auto& s = *static_cast<SendRecord*>(p);
  Comm& c = *s.comm;
  c.cluster_.network().start_transfer(c.node_ids_[static_cast<std::size_t>(s.rank)],
                                      c.node_ids_[static_cast<std::size_t>(s.dst)],
                                      s.size, c.speed_ratio(s.rank),
                                      {&send_delivered, &s});
}

void Comm::send_delivered(void* p) {
  auto& s = *static_cast<SendRecord*>(p);
  Comm& c = *s.comm;
  s.delivered = true;
  if (RecvRecord* r = std::exchange(s.peer, nullptr)) {
    r->delivered = true;
    if (r->awaiting_delivery) {
      r->awaiting_delivery = false;
      c.engine_.schedule_in(0, sim::Continuation{&recv_copy, r}, "event.set");
    }
  }
  if (c.tracer_ != nullptr) c.tracer_->log_delivered(s.log_seq);
  ++c.stats_.messages;
  c.stats_.bytes += s.size;
  s.bytes = s.size;
  s.done.set();
  // An unmatched eager send waits in the unexpected queue for its receive.
  if (!s.queued) c.release(s);
}

void Comm::recv_start(void* p) {
  auto& r = *static_cast<RecvRecord*>(p);
  Comm& c = *r.comm;
  Mailbox& mb = c.mailboxes_[static_cast<std::size_t>(r.rank)];
  const auto it = std::find_if(mb.sends.begin(), mb.sends.end(), [&](const SendRecord* s) {
    return envelope_matches(r.src, r.tag, s->rank, s->tag);
  });
  if (it == mb.sends.end()) {
    mb.recvs.push_back(&r);  // recv_matched runs once a send finds it
    return;
  }
  SendRecord& s = **it;
  mb.sends.erase(it);
  s.queued = false;
  c.match(s, r);
  s.recv_posted = true;
  if (s.awaiting_grant) {
    s.awaiting_grant = false;
    c.engine_.schedule_in(0, sim::Continuation{&send_transfer, &s}, "event.set");
  }
  c.note_match(s.rank, r.rank, s.tag, s.size);
  if (s.delivered) c.release(s);  // its protocol finished while it queued
  recv_matched(&r);
}

void Comm::recv_matched(void* p) {
  auto& r = *static_cast<RecvRecord*>(p);
  if (r.delivered) {
    recv_copy(&r);
  } else {
    r.awaiting_delivery = true;  // send_delivered schedules recv_copy
  }
}

void Comm::recv_copy(void* p) {
  // Receive-side copy / protocol processing.
  auto& r = *static_cast<RecvRecord*>(p);
  Comm& c = *r.comm;
  auto& cpu = c.node(r.rank).cpu();
  cpu.run(cpu.run_commproc_cycles(c.protocol_cycles(r.size)), {&recv_done, &r});
}

void Comm::recv_done(void* p) {
  auto& r = *static_cast<RecvRecord*>(p);
  Comm& c = *r.comm;
  if (c.tracer_ != nullptr) c.tracer_->log_recv_done(r.log_seq);
  r.bytes = r.size;
  r.done.set();
  c.release(r);
}

// Copies the message into the receive; a send not yet delivered keeps a
// pointer to it so delivery can wake it.
void Comm::match(SendRecord& s, RecvRecord& r) {
  r.size = s.size;
  r.log_seq = s.log_seq;
  if (s.delivered) {
    r.delivered = true;
  } else {
    s.peer = &r;
  }
}

// ---- collectives ------------------------------------------------------------

namespace {

int coll_tag(int seq, int round) {
  assert(round < 64);
  return (1 << 20) + (seq % (1 << 10)) * 64 + round;
}

}  // namespace

sim::Op CommBase::barrier(int rank) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_barrier"));
  co_await barrier_body(rank, seq);
}

sim::Op CommBase::barrier_body(int rank, int seq) {
  // Dissemination barrier: log2(P) rounds of token exchange.
  const int p = size();
  int round = 0;
  for (int step = 1; step < p; step <<= 1, ++round) {
    const int to = (rank + step) % p;
    const int from = (rank - step + p) % p;
    auto rr = irecv(rank, from, coll_tag(seq, round));
    auto sr = isend(rank, to, coll_tag(seq, round), 8);
    co_await wait_inner(rank, sr);
    co_await wait_inner(rank, rr);
  }
}

sim::Op CommBase::bcast(int rank, int root, std::int64_t bytes) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_bcast", root, bytes));
  }
  co_await bcast_body(rank, root, bytes, seq);
}

sim::Op CommBase::bcast_body(int rank, int root, std::int64_t bytes, int seq) {
  // Binomial tree (MPICH-1 style).
  const int p = size();
  const int relative = (rank - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      const int parent = ((relative ^ mask) + root) % p;
      auto rr = irecv(rank, parent, coll_tag(seq, 0));
      co_await wait_inner(rank, rr);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      const int child = ((relative + mask) + root) % p;
      auto sr = isend(rank, child, coll_tag(seq, 0), bytes);
      co_await wait_inner(rank, sr);
    }
    mask >>= 1;
  }
}

sim::Op CommBase::reduce(int rank, int root, std::int64_t bytes) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_reduce", root, bytes));
  }
  co_await reduce_body(rank, root, bytes, seq);
}

sim::Op CommBase::reduce_body(int rank, int root, std::int64_t bytes, int seq) {
  // Reverse binomial tree; leaves send first.
  const int p = size();
  const int relative = (rank - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((relative & mask) == 0) {
      const int child_rel = relative | mask;
      if (child_rel < p) {
        auto rr = irecv(rank, (child_rel + root) % p, coll_tag(seq, 1));
        co_await wait_inner(rank, rr);
      }
    } else {
      const int parent = ((relative & ~mask) + root) % p;
      auto sr = isend(rank, parent, coll_tag(seq, 1), bytes);
      co_await wait_inner(rank, sr);
      break;
    }
    mask <<= 1;
  }
}

sim::Op CommBase::allreduce(int rank, std::int64_t bytes) {
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_allreduce", -1, bytes));
  }
  const int seq1 = next_coll_seq(rank);
  co_await reduce_body(rank, 0, bytes, seq1);
  const int seq2 = next_coll_seq(rank);
  co_await bcast_body(rank, 0, bytes, seq2);
}

sim::Op CommBase::alltoall(int rank, std::int64_t bytes_per_pair) {
  std::vector<std::int64_t> sizes(size(), bytes_per_pair);
  sizes[rank] = 0;
  co_await alltoallv(rank, std::move(sizes));
}

sim::Op CommBase::alltoallv(int rank, std::vector<std::int64_t> bytes_to) {
  if (static_cast<int>(bytes_to.size()) != size()) {
    throw std::invalid_argument("alltoallv: bytes_to.size() != communicator size");
  }
  return alltoallv_body(rank, std::move(bytes_to), /*burst=*/false);
}

sim::Op CommBase::alltoallv_body(int rank, std::vector<std::int64_t> bytes_to,
                               bool burst) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective,
                                   burst ? "mpi_alltoallv" : "mpi_alltoall"));
  }
  const int p = size();
  if (burst) {
    // All sends and receives posted at once (naive MPICH-1 alltoallv):
    // maximal overlap, the collision-prone traffic shape of §5.2.
    std::vector<Request> reqs;
    reqs.reserve(2 * (p - 1));
    for (int r = 1; r < p; ++r) {
      const int to = (rank + r) % p;
      const int from = (rank - r + p) % p;
      reqs.push_back(irecv(rank, from, coll_tag(seq, r % 64)));
      reqs.push_back(isend(rank, to, coll_tag(seq, r % 64), bytes_to[to]));
    }
    for (auto& r : reqs) co_await wait_inner(rank, r);
  } else {
    // Pairwise exchange, P-1 rounds (MPICH-1 pairwise algorithm).
    for (int r = 1; r < p; ++r) {
      const int to = (rank + r) % p;
      const int from = (rank - r + p) % p;
      auto rr = irecv(rank, from, coll_tag(seq, r % 64));
      auto sr = isend(rank, to, coll_tag(seq, r % 64), bytes_to[to]);
      co_await wait_inner(rank, sr);
      co_await wait_inner(rank, rr);
    }
  }
}

sim::Op CommBase::scatter(int rank, int root, std::int64_t bytes) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_scatter", root, bytes));
  }
  // Linear (MPICH-1): the root sends each rank its block.
  if (rank == root) {
    std::vector<Request> reqs;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      reqs.push_back(isend(rank, r, coll_tag(seq, 2), bytes));
    }
    for (auto& r : reqs) co_await wait_inner(rank, r);
  } else {
    auto rr = irecv(rank, root, coll_tag(seq, 2));
    co_await wait_inner(rank, rr);
  }
}

sim::Op CommBase::gather(int rank, int root, std::int64_t bytes) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_gather", root, bytes));
  }
  if (rank == root) {
    std::vector<Request> reqs;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      reqs.push_back(irecv(rank, r, coll_tag(seq, 3)));
    }
    for (auto& r : reqs) co_await wait_inner(rank, r);
  } else {
    auto sr = isend(rank, root, coll_tag(seq, 3), bytes);
    co_await wait_inner(rank, sr);
  }
}

sim::Op CommBase::reduce_scatter(int rank, std::int64_t bytes_per_rank) {
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_reduce_scatter", -1,
                                   bytes_per_rank));
  }
  // MPICH-1 style: reduce the full vector to rank 0, then scatter blocks.
  const int seq1 = next_coll_seq(rank);
  co_await reduce_body(rank, 0, bytes_per_rank * size(), seq1);
  co_await scatter(rank, 0, bytes_per_rank);
}

sim::Op CommBase::alltoallv_burst(int rank, std::vector<std::int64_t> bytes_to) {
  // Validate eagerly (a coroutine body would capture the throw in the
  // promise instead of raising it at the call site).
  if (static_cast<int>(bytes_to.size()) != size()) {
    throw std::invalid_argument("alltoallv_burst: bytes_to.size() != communicator size");
  }
  return alltoallv_body(rank, std::move(bytes_to), /*burst=*/true);
}

sim::Op CommBase::allgather(int rank, std::int64_t bytes) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_allgather", -1, bytes));
  }
  // Ring algorithm: P-1 steps, passing blocks around.
  const int p = size();
  const int right = (rank + 1) % p;
  const int left = (rank - 1 + p) % p;
  for (int s = 0; s + 1 < p; ++s) {
    auto rr = irecv(rank, left, coll_tag(seq, s % 64));
    auto sr = isend(rank, right, coll_tag(seq, s % 64), bytes);
    co_await wait_inner(rank, sr);
    co_await wait_inner(rank, rr);
  }
}

}  // namespace pcd::mpi
