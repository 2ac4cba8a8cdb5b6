// Simulated MPI on top of the cluster model (MPICH-1.2.5-like semantics).
//
// Rank processes are coroutines.  A blocking point-to-point call (wait,
// waitall, send, recv, sendrecv) returns a plain awaiter whose state lives
// in the awaiting rank's frame (CommBase::Blocking); a collective returns a
// lazy sim::Op.  Underneath, nothing allocates a coroutine frame per
// message: the point-to-point protocol runs as callbacks on one pooled
// record per message side (see Comm), the wire as one pooled record per
// transfer (net::Network), and each wait inside a collective is the same
// kind of awaiter in the collective's frame (CommBase::WaitAwaiter).
// Costs charged per message:
//   - protocol processing on the CPU (per-message + per-KB cycles, scales
//     with 1/f — the part of communication that *is* frequency-sensitive),
//   - wire time through the network model (frequency-insensitive),
//   - blocked time inside MPI_Wait, spent in the CPU's WaitPoll state
//     (partly-runnable progress engine; see cpu::CpuConfig).
// Large messages use rendezvous (sender stalls until the receive is
// posted); small messages are eager.
//
// Collectives are implemented over point-to-point exactly like MPICH-1:
// dissemination barrier, binomial bcast/reduce, reduce+bcast allreduce,
// pairwise-exchange alltoall/alltoallv, ring allgather.  Each rank must
// call collectives in the same order (SPMD), which the tag sequencing
// relies on.
//
// The layer splits transport from algorithm: CommBase owns everything
// expressible over nonblocking point-to-point — the blocking wrappers,
// MPI_Wait semantics, and every collective — against two pure-virtual
// verbs, isend and irecv.  Comm is the classic single-engine transport
// (mailbox matching on one shared engine); mpi::ShardedComm
// (sharded_comm.hpp) is the cross-shard transport.  Application and
// strategy code takes CommBase&, so workloads and INTERNAL hooks run
// unchanged on either.
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "machine/cluster.hpp"
#include "sim/op.hpp"
#include "sim/provenance.hpp"
#include "sim/process.hpp"
#include "trace/tracer.hpp"

namespace pcd::mpi {

struct CostParams {
  double per_msg_cycles = 20000;          // stack traversal per send/recv
  double per_kb_cycles = 600;             // copy/checksum per KB, each side
  std::int64_t eager_limit = 64 * 1024;   // rendezvous above this
};

struct CommStats {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
};

/// Transport-independent MPI surface: blocking wrappers and collectives
/// composed over the derived class's isend/irecv.  All algorithm choices
/// (dissemination barrier, binomial trees, pairwise exchange...) live
/// here, so every transport exhibits the same traffic patterns.
class CommBase {
 public:
  class Request;

  /// What a request reports: `done` is set, and `bytes` filled in, when its
  /// message side completes.  The state sits in a pooled block (in Comm the
  /// message side's own record, in ShardedComm a standalone block for each
  /// cross-shard request) and counts its own references (see Request).
  struct RequestState {
    explicit RequestState(sim::Engine& e) : done(e) {}
    sim::Event done;
    std::int64_t bytes = 0;

   private:
    friend class CommBase::Request;
    friend class Comm;
    // Which block holds the state, so the last reference frees its type.
    enum class Kind : std::uint8_t { Standalone, Send, Recv };
    std::uint32_t refs = 0;  // handles, plus the protocol's own while it runs
    Kind kind = Kind::Standalone;
  };

  static constexpr int kAnySource = -1;
  static constexpr int kAnyTag = -1;

  CommBase(const CommBase&) = delete;
  CommBase& operator=(const CommBase&) = delete;
  virtual ~CommBase() = default;

  virtual int size() const = 0;
  /// The machine node rank `rank` runs on.
  virtual machine::Node& node(int rank) = 0;
  virtual CommStats stats() const = 0;
  trace::Tracer* tracer() { return tracer_; }

  // ---- point-to-point (transport-specific) ----

  /// Nonblocking send: protocol work + wire happen in the background; the
  /// returned request completes at delivery.  Tags must be < 2^20.
  virtual Request isend(int rank, int dst, int tag, std::int64_t bytes) = 0;
  /// Nonblocking receive.
  virtual Request irecv(int rank, int src = kAnySource, int tag = kAnyTag) = 0;

  // ---- blocking wrappers ----
  //
  // Each returns a plain awaiter, not a coroutine: the call starts when
  // awaited, and its state (requests, loop position, trace scope) lives in
  // the awaiting frame.  See Blocking.

  class Blocking;
  class WaitCall;
  class WaitallCall;
  class SendCall;
  class RecvCall;
  class SendrecvCall;

  /// Blocks (WaitPoll) until the request completes.
  WaitCall wait(int rank, Request req);
  /// Waits on each request in turn.  The requests stay in the caller's
  /// storage (an array or a vector in its frame) until the call resumes.
  WaitallCall waitall(int rank, std::span<const Request> reqs);
  /// Blocking send / receive; a receive yields the received bytes.
  SendCall send(int rank, int dst, int tag, std::int64_t bytes);
  RecvCall recv(int rank, int src = kAnySource, int tag = kAnyTag);
  /// Combined exchange (posts the receive first, so symmetric sendrecv
  /// pairs of any size cannot deadlock).  Yields the received bytes.
  SendrecvCall sendrecv(int rank, int dst, int send_tag, std::int64_t send_bytes, int src,
                        int recv_tag);

  // ---- collectives (call from every rank, same order) ----

  sim::Op barrier(int rank);
  sim::Op bcast(int rank, int root, std::int64_t bytes);
  sim::Op reduce(int rank, int root, std::int64_t bytes);
  sim::Op allreduce(int rank, std::int64_t bytes);
  /// Pairwise exchange; `bytes_per_pair` to each other rank.
  sim::Op alltoall(int rank, std::int64_t bytes_per_pair);
  /// Vector variant: `bytes_to[d]` to rank d (bytes_to.size() == size()).
  sim::Op alltoallv(int rank, std::vector<std::int64_t> bytes_to);
  /// Burst variant: posts *all* sends and receives at once instead of
  /// pairwise rounds — how MPICH-1's naive alltoallv behaves, and the
  /// traffic shape behind IS's collision-driven anomaly (§5.2).
  sim::Op alltoallv_burst(int rank, std::vector<std::int64_t> bytes_to);
  sim::Op allgather(int rank, std::int64_t bytes);
  /// Root sends a distinct `bytes` block to every rank (linear, MPICH-1).
  sim::Op scatter(int rank, int root, std::int64_t bytes);
  /// Every rank sends `bytes` to the root (linear).
  sim::Op gather(int rank, int root, std::int64_t bytes);
  /// Reduce + scatter of the result (`bytes` per rank).
  sim::Op reduce_scatter(int rank, std::int64_t bytes_per_rank);

 protected:
  CommBase(CostParams costs, trace::Tracer* tracer)
      : costs_(costs), tracer_(tracer) {}

  /// A request whose state is a pooled block of its own, freed with its
  /// last handle (ShardedComm's cross-shard messages).
  static Request standalone_request(sim::Engine& engine);

  /// Wait without opening a trace scope (collective internals): the
  /// Blocking awaiter over one request, no coroutine frame.
  class WaitAwaiter;
  WaitAwaiter wait_inner(int rank, const Request& req);

  double protocol_cycles(std::int64_t bytes) const;
  double speed_ratio(int rank);
  /// Per-rank collective sequence numbers (tag disambiguation).  Derived
  /// constructors must call init_ranks() once the rank count is known.
  void init_ranks(int n) { coll_seq_.assign(static_cast<std::size_t>(n), 0); }
  int next_coll_seq(int rank) { return coll_seq_.at(rank)++; }

  CostParams costs_;
  trace::Tracer* tracer_;
  CommStats stats_;

 private:
  // Collective bodies, parameterized by the per-call sequence number.
  sim::Op barrier_body(int rank, int seq);
  sim::Op bcast_body(int rank, int root, std::int64_t bytes, int seq);
  sim::Op reduce_body(int rank, int root, std::int64_t bytes, int seq);
  sim::Op alltoallv_body(int rank, std::vector<std::int64_t> bytes_to, bool burst);

  std::vector<int> coll_seq_;
};

/// A handle on a request's state: one pointer, and an intrusive count
/// with no atomics.  Copying a handle takes a reference, moving one passes
/// it on, and dropping one gives it back; the transport holds one more
/// while the message side runs, so a dropped handle never cuts the
/// protocol short.  The last reference frees the pooled block.  Every
/// reference to a state is taken and dropped on the thread of the engine
/// that runs its rank (ShardedComm creates and completes each cross-shard
/// request on the rank's own shard), so the count is a plain integer.
class CommBase::Request {
 public:
  Request() noexcept = default;
  Request(const Request& other) noexcept : s_(other.s_) {
    if (s_ != nullptr) ++s_->refs;
  }
  Request(Request&& other) noexcept : s_(std::exchange(other.s_, nullptr)) {}
  Request& operator=(Request other) noexcept {
    std::swap(s_, other.s_);
    return *this;
  }
  ~Request() {
    if (s_ != nullptr) unref(s_);
  }

  RequestState* operator->() const noexcept { return s_; }
  RequestState& operator*() const noexcept { return *s_; }
  explicit operator bool() const noexcept { return s_ != nullptr; }
  /// References to the state: handles, plus the transport's while it runs.
  std::uint32_t use_count() const noexcept { return s_ != nullptr ? s_->refs : 0; }

 private:
  friend class CommBase;
  friend class Comm;
  /// A new handle on `s`: takes a reference.
  explicit Request(RequestState* s) noexcept : s_(s) { ++s->refs; }
  static void unref(RequestState* s) noexcept {
    if (--s->refs == 0) destroy(s);
  }
  /// Destroys the state and returns its block to the pool.
  static void destroy(RequestState* s) noexcept;

  RequestState* s_ = nullptr;
};

/// What every blocking call and every wait inside a collective awaits: it
/// waits on a range of requests in order, skipping those already done.  A
/// wait that parks holds the rank's CPU in WaitPoll from suspension until
/// its request completes, or until the awaiting frame is destroyed at
/// teardown.  The request's Event runs the next step from its "event.set"
/// dispatch; the last step resumes the caller from inside that dispatch.
/// A traced call opens its scope when awaited and closes it when the
/// caller resumes.
class CommBase::Blocking {
 public:
  Blocking(const Blocking&) = delete;
  Blocking& operator=(const Blocking&) = delete;

  void await_suspend(std::coroutine_handle<> caller) {
    caller_ = caller;
    park();
  }
  /// Calls that yield no value end here; recv and sendrecv add the bytes.
  void await_resume() { scope_.reset(); }

 protected:
  Blocking(CommBase& comm, int rank) : comm_(&comm), rank_(rank) {}
  ~Blocking() = default;

  /// Opens the call's trace scope when the communicator is traced.
  void open_scope(trace::Cat cat, const char* label, int peer = -1, std::int64_t bytes = 0) {
    if (comm_->tracer_ != nullptr) scope_.open(*comm_->tracer_, rank_, cat, label, peer, bytes);
  }
  /// Starts waiting on [first, last); true when every request is done.
  bool wait_on(const Request* first, const Request* last) {
    next_ = first;
    last_ = last;
    return skip_done();
  }

  CommBase* comm_;
  int rank_;
  trace::ScopeBox scope_;  // declared before wait_: WaitPoll ends first

 private:
  bool skip_done() {
    while (next_ != last_ && (*next_)->done.signaled()) ++next_;
    return next_ == last_;
  }
  void park() {
    wait_.emplace(comm_->node(rank_).cpu());
    (*next_)->done.when_set({&woken, this});
  }
  static void woken(void* self) {
    auto& b = *static_cast<Blocking*>(self);
    b.wait_.reset();
    ++b.next_;
    if (b.skip_done()) {
      b.caller_.resume();  // may destroy this awaiter
    } else {
      b.park();
    }
  }

  const Request* next_ = nullptr;
  const Request* last_ = nullptr;
  std::coroutine_handle<> caller_;
  std::optional<cpu::Cpu::WaitScope> wait_;
};

class [[nodiscard]] CommBase::WaitAwaiter : public Blocking {
 public:
  WaitAwaiter(CommBase& comm, int rank, const Request& req) : Blocking(comm, rank), req_(&req) {}
  bool await_ready() { return wait_on(req_, req_ + 1); }

 private:
  const Request* req_;
};

class [[nodiscard]] CommBase::WaitCall : public Blocking {
 public:
  WaitCall(CommBase& comm, int rank, Request req)
      : Blocking(comm, rank), req_(std::move(req)) {}
  bool await_ready() {
    open_scope(trace::Cat::Wait, "mpi_wait");
    return wait_on(&req_, &req_ + 1);
  }

 private:
  Request req_;
};

class [[nodiscard]] CommBase::WaitallCall : public Blocking {
 public:
  WaitallCall(CommBase& comm, int rank, std::span<const Request> reqs)
      : Blocking(comm, rank), reqs_(reqs) {}
  bool await_ready() {
    open_scope(trace::Cat::Wait, "mpi_waitall");
    return wait_on(reqs_.data(), reqs_.data() + reqs_.size());
  }

 private:
  std::span<const Request> reqs_;
};

class [[nodiscard]] CommBase::SendCall : public Blocking {
 public:
  SendCall(CommBase& comm, int rank, int dst, int tag, std::int64_t bytes)
      : Blocking(comm, rank), dst_(dst), tag_(tag), bytes_(bytes) {}
  bool await_ready() {
    open_scope(trace::Cat::Send, "mpi_send", dst_, bytes_);
    req_ = comm_->isend(rank_, dst_, tag_, bytes_);
    return wait_on(&req_, &req_ + 1);
  }

 private:
  int dst_;
  int tag_;
  std::int64_t bytes_;
  Request req_;
};

class [[nodiscard]] CommBase::RecvCall : public Blocking {
 public:
  RecvCall(CommBase& comm, int rank, int src, int tag)
      : Blocking(comm, rank), src_(src), tag_(tag) {}
  bool await_ready() {
    open_scope(trace::Cat::Recv, "mpi_recv", src_);
    req_ = comm_->irecv(rank_, src_, tag_);
    return wait_on(&req_, &req_ + 1);
  }
  std::int64_t await_resume() {
    // The size is known only once the send matched.
    if (scope_.get() != nullptr) scope_.get()->set_bytes(req_->bytes);
    scope_.reset();
    return req_->bytes;
  }

 private:
  int src_;
  int tag_;
  Request req_;
};

class [[nodiscard]] CommBase::SendrecvCall : public Blocking {
 public:
  SendrecvCall(CommBase& comm, int rank, int dst, int send_tag, std::int64_t send_bytes,
               int src, int recv_tag)
      : Blocking(comm, rank), dst_(dst), send_tag_(send_tag), src_(src),
        recv_tag_(recv_tag), send_bytes_(send_bytes) {}
  bool await_ready() {
    open_scope(trace::Cat::Send, "mpi_sendrecv", dst_, send_bytes_);
    reqs_[1] = comm_->irecv(rank_, src_, recv_tag_);
    reqs_[0] = comm_->isend(rank_, dst_, send_tag_, send_bytes_);
    return wait_on(reqs_, reqs_ + 2);  // the send, then the receive
  }
  std::int64_t await_resume() {
    scope_.reset();
    return reqs_[1]->bytes;
  }

 private:
  int dst_;
  int send_tag_;
  int src_;
  int recv_tag_;
  std::int64_t send_bytes_;
  Request reqs_[2];
};

inline CommBase::WaitAwaiter CommBase::wait_inner(int rank, const Request& req) {
  return WaitAwaiter(*this, rank, req);
}
inline CommBase::WaitCall CommBase::wait(int rank, Request req) {
  return WaitCall(*this, rank, std::move(req));
}
inline CommBase::WaitallCall CommBase::waitall(int rank, std::span<const Request> reqs) {
  return WaitallCall(*this, rank, reqs);
}
inline CommBase::SendCall CommBase::send(int rank, int dst, int tag, std::int64_t bytes) {
  return SendCall(*this, rank, dst, tag, bytes);
}
inline CommBase::RecvCall CommBase::recv(int rank, int src, int tag) {
  return RecvCall(*this, rank, src, tag);
}
inline CommBase::SendrecvCall CommBase::sendrecv(int rank, int dst, int send_tag,
                                                 std::int64_t send_bytes, int src,
                                                 int recv_tag) {
  return SendrecvCall(*this, rank, dst, send_tag, send_bytes, src, recv_tag);
}

/// The single-engine transport: all ranks share one cluster/engine, and
/// envelope matching is a direct mailbox rendezvous between the two sides
/// of a message.
///
/// Each isend/irecv allocates one pooled record (DESIGN.md §3.5): the send
/// record carries the envelope and the delivery state, the receive record
/// the post and the matched message.  A record is its request's state, so
/// the returned Request is an intrusive handle on the record itself, with
/// no separate control block.  No process is spawned per
/// message: the protocol runs as step functions the engine, the CPU and the
/// network call back (spawn step -> protocol work -> match -> rendezvous
/// grant -> transfer -> delivery -> receive copy -> done), scheduled under
/// the site labels a send and a receive coroutine would use.
/// The protocol holds a reference to its record while it runs (or, for an
/// eager send delivered before any receive matched it, while it waits in
/// the unexpected queue), so a dropped Request does not stop the protocol;
/// the record is freed when that reference and the last handle are gone.
/// ~Comm drops the protocol's reference on every record still in flight;
/// a Request that outlives the communicator stays readable.
class Comm final : public CommBase {
 public:
  /// Creates a communicator over `ranks` nodes of the cluster; rank r runs
  /// on cluster node `node_ids[r]`.
  Comm(machine::Cluster& cluster, std::vector<int> node_ids, CostParams costs = {},
       trace::Tracer* tracer = nullptr);
  ~Comm() override;

  int size() const override { return static_cast<int>(node_ids_.size()); }
  machine::Node& node(int rank) override { return cluster_.node(node_ids_.at(rank)); }
  machine::Cluster& cluster() { return cluster_; }
  CommStats stats() const override { return stats_; }

  /// Determinism observability: while set, every envelope match folds one
  /// record (t, src, dst, tag, bytes) into the stream at the instant the
  /// send meets its receive — the communication-order digest compared by
  /// tools/pcd_diff.  Null (the default) is zero-cost.
  void set_digest(sim::DigestStream* digest) { digest_ = digest; }

  /// Message records not yet released: in flight, or delivered eager sends
  /// no receive has matched yet.  Walks the list (tests and diagnostics).
  std::size_t live_records() const;

  Request isend(int rank, int dst, int tag, std::int64_t bytes) override;
  Request irecv(int rank, int src = kAnySource, int tag = kAnyTag) override;

 private:
  struct Record;
  struct SendRecord;
  struct RecvRecord;
  struct Mailbox {
    std::vector<SendRecord*> sends;  // announced, unmatched
    std::vector<RecvRecord*> recvs;  // posted, unmatched
  };

  // Protocol steps, in order; each takes its record.
  static void send_start(void* rec);
  static void send_announce(void* rec);
  static void send_transfer(void* rec);
  static void send_delivered(void* rec);
  static void recv_start(void* rec);
  static void recv_matched(void* rec);
  static void recv_copy(void* rec);
  static void recv_done(void* rec);

  friend class CommBase::Request;  // frees the records by kind

  void match(SendRecord& s, RecvRecord& r);
  void adopt(Record& rec, RequestState::Kind kind);
  void release(Record& rec);
  void note_match(int src, int dst, int tag, std::int64_t bytes);

  machine::Cluster& cluster_;
  sim::Engine& engine_;
  std::vector<int> node_ids_;
  sim::DigestStream* digest_ = nullptr;
  std::vector<Mailbox> mailboxes_;  // indexed by destination rank
  Record* live_ = nullptr;          // every unreleased record (intrusive list)
};

}  // namespace pcd::mpi
