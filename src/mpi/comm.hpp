// Simulated MPI on top of the cluster model (MPICH-1.2.5-like semantics).
//
// Rank processes are coroutines; every blocking call and collective returns
// a lazy sim::Op awaited by the rank, while the point-to-point protocol
// underneath runs as callbacks on one pooled record per message side (see
// Comm).  Costs charged per message:
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

#include <cstdint>
#include <memory>
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
  struct RequestState {
    explicit RequestState(sim::Engine& e) : done(e) {}
    sim::Event done;
    std::int64_t bytes = 0;
  };
  using Request = std::shared_ptr<RequestState>;

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

  /// Blocks (WaitPoll) until the request completes.
  sim::Op<> wait(int rank, Request req);
  sim::Op<> waitall(int rank, std::vector<Request> reqs);
  /// Blocking send / receive.
  sim::Op<> send(int rank, int dst, int tag, std::int64_t bytes);
  sim::Op<std::int64_t> recv(int rank, int src = kAnySource, int tag = kAnyTag);
  /// Combined exchange (posts the receive first, so symmetric sendrecv
  /// pairs of any size cannot deadlock).  Returns received bytes.
  sim::Op<std::int64_t> sendrecv(int rank, int dst, int send_tag,
                                 std::int64_t send_bytes, int src, int recv_tag);

  // ---- collectives (call from every rank, same order) ----

  sim::Op<> barrier(int rank);
  sim::Op<> bcast(int rank, int root, std::int64_t bytes);
  sim::Op<> reduce(int rank, int root, std::int64_t bytes);
  sim::Op<> allreduce(int rank, std::int64_t bytes);
  /// Pairwise exchange; `bytes_per_pair` to each other rank.
  sim::Op<> alltoall(int rank, std::int64_t bytes_per_pair);
  /// Vector variant: `bytes_to[d]` to rank d (bytes_to.size() == size()).
  sim::Op<> alltoallv(int rank, std::vector<std::int64_t> bytes_to);
  /// Burst variant: posts *all* sends and receives at once instead of
  /// pairwise rounds — how MPICH-1's naive alltoallv behaves, and the
  /// traffic shape behind IS's collision-driven anomaly (§5.2).
  sim::Op<> alltoallv_burst(int rank, std::vector<std::int64_t> bytes_to);
  sim::Op<> allgather(int rank, std::int64_t bytes);
  /// Root sends a distinct `bytes` block to every rank (linear, MPICH-1).
  sim::Op<> scatter(int rank, int root, std::int64_t bytes);
  /// Every rank sends `bytes` to the root (linear).
  sim::Op<> gather(int rank, int root, std::int64_t bytes);
  /// Reduce + scatter of the result (`bytes` per rank).
  sim::Op<> reduce_scatter(int rank, std::int64_t bytes_per_rank);

 protected:
  CommBase(CostParams costs, trace::Tracer* tracer)
      : costs_(costs), tracer_(tracer) {}

  /// Wait without opening a trace scope (collective internals).
  sim::Op<> wait_inner(int rank, const Request& req);

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
  sim::Op<> barrier_body(int rank, int seq);
  sim::Op<> bcast_body(int rank, int root, std::int64_t bytes, int seq);
  sim::Op<> reduce_body(int rank, int root, std::int64_t bytes, int seq);
  sim::Op<> alltoallv_body(int rank, std::vector<std::int64_t> bytes_to, bool burst);

  std::vector<int> coll_seq_;
};

/// The single-engine transport: all ranks share one cluster/engine, and
/// envelope matching is a direct mailbox rendezvous between the two sides
/// of a message.
///
/// Each isend/irecv allocates one pooled record (DESIGN.md §3.5): the send
/// record carries the envelope and the delivery state, the receive record
/// the post and the matched message, and the returned Request is an
/// aliasing view of the record's RequestState.  No process is spawned per
/// message: the protocol runs as step functions the engine, the CPU and the
/// network call back (spawn step -> protocol work -> match -> rendezvous
/// grant -> transfer -> delivery -> receive copy -> done), scheduled under
/// the site labels a send and a receive coroutine would use.
/// A record lives while its protocol runs (or, for an eager send delivered
/// before any receive matched it, while it waits in the unexpected queue);
/// a dropped Request does not stop the protocol.  ~Comm releases the
/// records still in flight.
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

  void match(SendRecord& s, RecvRecord& r);
  void adopt(std::shared_ptr<Record> rec);
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
