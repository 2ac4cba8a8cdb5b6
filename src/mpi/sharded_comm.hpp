// Cross-shard MPI transport (DESIGN.md §3.14).
//
// One communicator spanning every shard of a ShardedEngine: rank r lives
// on node plan.local_of(r) of clusters[plan.shard_of(r)].  The algorithm
// layer (blocking wrappers, collectives) is inherited from CommBase, so a
// workload sees exactly the MPICH-1 traffic patterns of the single-engine
// Comm; only the transport of each point-to-point message differs:
//
//   - Intra-shard messages delegate to a per-shard mpi::Comm over that
//     shard's cluster — full mailbox semantics and full network-contention
//     fidelity (ports, FIFOs, collisions), all on one thread.
//   - Cross-shard messages travel as time-stamped ShardedEngine::post()
//     envelopes over a dedicated uncontended uplink: announce (sender ->
//     receiver shard, one min-latency hop carrying the envelope) and ack
//     (delivery notification back).  Matching, rendezvous pacing, and
//     delivery timing are all computed by the *receiving* shard, so each
//     piece of protocol state is owned and touched by exactly one shard
//     thread; the sender's coroutine only ever blocks on Events owned by
//     its own shard, signalled via posts routed back through the barrier
//     protocol.  Timing (L = lookahead = Network::min_latency(), w(b) =
//     serialization time of b bytes):
//        announce arrives:  ta = t_send + L
//        match:             tm = max(ta, t_recv_posted)
//        eager delivery:    td = max(tm, ta + w(b))      (data shipped with
//                                                         the announce)
//        rendezvous:        td = tm + 2L + w(b)          (grant travels
//                                                         back, then data)
//        sender completes:  td + L                       (ack hop)
//   - Wildcard receives (kAnySource/kAnyTag) are rejected: conservative
//     sharding cannot match "any" deterministically across shards without
//     global knowledge, and no workload in src/apps uses them.  Every
//     collective uses exact (src, tag) envelopes.
//
// A sharded run carries no observers (RunConfig::validate()), so this
// transport logs no trace edges and folds no digest records.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/partition.hpp"
#include "mpi/comm.hpp"
#include "sim/sharded.hpp"

namespace pcd::mpi {

class ShardedComm final : public CommBase {
 public:
  /// `plan` partitions ranks; clusters[s] must have at least plan.count(s)
  /// nodes and be built on engines.shard(s) (see build_shard_clusters).
  ShardedComm(sim::ShardedEngine& engines,
              std::vector<machine::Cluster*> clusters, machine::ShardPlan plan,
              CostParams costs = {});

  int size() const override { return plan_.total(); }
  machine::Node& node(int rank) override {
    return clusters_.at(static_cast<std::size_t>(plan_.shard_of(rank)))
        ->node(plan_.local_of(rank));
  }
  /// Aggregated across the per-shard transports + cross-shard messages.
  /// Only meaningful at a barrier (between windows) — per-shard counters
  /// are owned by their shard threads while a window runs.
  CommStats stats() const override;

  Request isend(int rank, int dst, int tag, std::int64_t bytes) override;
  Request irecv(int rank, int src = kAnySource, int tag = kAnyTag) override;

  Comm& inner(int shard) { return *inner_.at(static_cast<std::size_t>(shard)); }

 private:
  // Sender-shard state: the coroutine parks on `acked` (Event on the
  // sender's engine) until the receiving shard posts the delivery ack.
  struct XSendState {
    explicit XSendState(sim::Engine& e) : acked(e) {}
    sim::Event acked;
  };
  // Receiver-shard view of one in-flight cross-shard message.  Created at
  // announce arrival; `delivered` is an Event on the receiving engine.
  struct XMsg {
    explicit XMsg(sim::Engine& e) : delivered(e) {}
    int src = 0;
    int dst = 0;
    int tag = 0;
    std::int64_t bytes = 0;
    sim::SimTime arrival = 0;
    bool rendezvous = false;
    int src_shard = 0;
    std::shared_ptr<XSendState> sender;
    sim::Event delivered;
  };
  struct XRecvPost {
    explicit XRecvPost(sim::Engine& e) : matched(e) {}
    int src = 0;
    int tag = 0;
    std::shared_ptr<XMsg> msg;
    sim::Event matched;
  };
  struct XMailbox {
    std::vector<std::shared_ptr<XMsg>> sends;       // arrived, unmatched
    std::vector<std::shared_ptr<XRecvPost>> recvs;  // posted, unmatched
  };

  // A cross-shard Request is created on the rank's own shard and its
  // process completes it there, so its count never crosses threads; only
  // XMsg, XSendState and XRecvPost do, and they keep shared_ptr.
  sim::Process xsend_proc(int rank, int dst, int tag, std::int64_t bytes,
                          Request req);
  sim::Process xrecv_proc(int rank, int src, int tag, Request req);
  void on_envelope(const std::shared_ptr<XMsg>& msg);         // dst shard
  void complete_match(const std::shared_ptr<XMsg>& msg);      // dst shard
  void deliver(const std::shared_ptr<XMsg>& msg);             // dst shard
  sim::SimDuration wire_time(std::int64_t bytes) const;

  sim::Engine& engine_of(int rank) {
    return engines_.shard(plan_.shard_of(rank));
  }

  sim::ShardedEngine& engines_;
  std::vector<machine::Cluster*> clusters_;
  machine::ShardPlan plan_;
  std::vector<std::unique_ptr<Comm>> inner_;
  std::vector<XMailbox> xmail_;    // indexed by destination rank
  std::vector<CommStats> xstats_;  // per source shard (no sharing)
  sim::SimDuration lookahead_;
};

}  // namespace pcd::mpi
