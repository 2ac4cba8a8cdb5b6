// Simulated MPI on top of the cluster model (MPICH-1.2.5-like semantics).
//
// Rank processes are coroutines; every call returns a lazy sim::Op awaited
// by the rank.  Costs charged per message:
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
  /// Tracer receiving `rank`'s scope records.  Single-engine transports
  /// return the one tracer; ShardedComm overrides this to return the
  /// owning shard's tracer, so each worker thread only ever writes its own
  /// shard's collector (per-shard collection, merged at end of run).
  virtual trace::Tracer* tracer_for(int /*rank*/) { return tracer_; }

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
/// envelope matching is a direct mailbox rendezvous between sender and
/// receiver coroutines.
class Comm final : public CommBase {
 public:
  /// Creates a communicator over `ranks` nodes of the cluster; rank r runs
  /// on cluster node `node_ids[r]`.
  Comm(machine::Cluster& cluster, std::vector<int> node_ids, CostParams costs = {},
       trace::Tracer* tracer = nullptr);

  int size() const override { return static_cast<int>(node_ids_.size()); }
  machine::Node& node(int rank) override { return cluster_.node(node_ids_.at(rank)); }
  machine::Cluster& cluster() { return cluster_; }
  CommStats stats() const override { return stats_; }

  /// Determinism observability: while set, every envelope match folds one
  /// record (t, src, dst, tag, bytes) into the stream at the instant the
  /// send meets its receive — the communication-order digest compared by
  /// tools/pcd_diff.  Null (the default) is zero-cost.
  void set_digest(sim::DigestStream* digest) { digest_ = digest; }

  /// Sharded use: routes this (intra-shard) communicator's message log to
  /// a per-shard tracer, with src/dst offset by `rank_base` so logged
  /// edges carry machine-wide rank ids.  ShardedComm drives the inner
  /// comms only through isend/irecv, so the blocking wrappers (which would
  /// open scopes under local rank ids) never see this tracer.
  void set_trace(trace::Tracer* tracer, int rank_base) {
    tracer_ = tracer;
    rank_base_ = rank_base;
  }

  Request isend(int rank, int dst, int tag, std::int64_t bytes) override;
  Request irecv(int rank, int src = kAnySource, int tag = kAnyTag) override;

 private:
  struct SendMsg {
    explicit SendMsg(sim::Engine& e) : recv_posted(e), delivered(e) {}
    int src = 0;
    int tag = 0;
    std::int64_t bytes = 0;
    std::int64_t log_seq = -1;  // index into the tracer's message log
    sim::Event recv_posted;
    sim::Event delivered;
  };
  struct RecvPost {
    explicit RecvPost(sim::Engine& e) : matched(e) {}
    int src = kAnySource;
    int tag = kAnyTag;
    std::shared_ptr<SendMsg> msg;
    sim::Event matched;
  };
  struct Mailbox {
    std::vector<std::shared_ptr<SendMsg>> sends;   // announced, unmatched
    std::vector<std::shared_ptr<RecvPost>> recvs;  // posted, unmatched
  };

  sim::Process send_proc(int rank, int dst, int tag, std::int64_t bytes, Request req);
  sim::Process recv_proc(int rank, int src, int tag, Request req);
  void note_match(int src, int dst, int tag, std::int64_t bytes);

  machine::Cluster& cluster_;
  sim::Engine& engine_;
  std::vector<int> node_ids_;
  sim::DigestStream* digest_ = nullptr;
  int rank_base_ = 0;  // added to src/dst in message-log entries (set_trace)
  std::vector<Mailbox> mailboxes_;  // indexed by destination rank
};

}  // namespace pcd::mpi
