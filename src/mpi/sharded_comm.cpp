#include "mpi/sharded_comm.hpp"

#include <cassert>
#include <memory>

#include "sim/frame_pool.hpp"
#include <numeric>
#include <stdexcept>

namespace pcd::mpi {

ShardedComm::ShardedComm(sim::ShardedEngine& engines,
                         std::vector<machine::Cluster*> clusters,
                         machine::ShardPlan plan, CostParams costs)
    : CommBase(costs, /*tracer=*/nullptr),
      engines_(engines),
      clusters_(std::move(clusters)),
      plan_(std::move(plan)),
      lookahead_(engines.lookahead()) {
  if (plan_.shards() > engines_.shards() ||
      static_cast<int>(clusters_.size()) != plan_.shards()) {
    throw std::invalid_argument(
        "ShardedComm: clusters/plan/engine shard counts disagree");
  }
  inner_.reserve(clusters_.size());
  for (int s = 0; s < plan_.shards(); ++s) {
    if (clusters_[static_cast<std::size_t>(s)]->size() < plan_.count(s)) {
      throw std::invalid_argument(
          "ShardedComm: shard cluster smaller than its rank count");
    }
    std::vector<int> local_ids(static_cast<std::size_t>(plan_.count(s)));
    std::iota(local_ids.begin(), local_ids.end(), 0);
    inner_.push_back(std::make_unique<Comm>(*clusters_[static_cast<std::size_t>(s)],
                                            std::move(local_ids), costs));
  }
  xmail_.resize(static_cast<std::size_t>(plan_.total()));
  xstats_.resize(static_cast<std::size_t>(plan_.shards()));
  init_ranks(plan_.total());
}

CommStats ShardedComm::stats() const {
  CommStats total;
  for (const auto& c : inner_) {
    const CommStats s = c->stats();
    total.messages += s.messages;
    total.bytes += s.bytes;
  }
  for (const auto& s : xstats_) {
    total.messages += s.messages;
    total.bytes += s.bytes;
  }
  return total;
}

sim::SimDuration ShardedComm::wire_time(std::int64_t bytes) const {
  // Pure serialization at nominal port bandwidth (the latency hop is the
  // explicit lookahead L in the protocol timing).  Mirrors
  // Network::uncontended_time minus its latency term.
  const auto& params = clusters_.front()->config().network;
  const double wire_s =
      static_cast<double>(bytes) * 8.0 / (params.bandwidth_mbps * 1e6);
  return sim::from_seconds(wire_s);
}

CommBase::Request ShardedComm::isend(int rank, int dst, int tag,
                                     std::int64_t bytes) {
  assert(rank >= 0 && rank < size() && dst >= 0 && dst < size());
  const int a = plan_.shard_of(rank);
  const int b = plan_.shard_of(dst);
  if (a == b) {
    return inner_[static_cast<std::size_t>(a)]->isend(
        plan_.local_of(rank), plan_.local_of(dst), tag, bytes);
  }
  Request req = standalone_request(engines_.shard(a));
  sim::spawn(engines_.shard(a), xsend_proc(rank, dst, tag, bytes, req));
  return req;
}

CommBase::Request ShardedComm::irecv(int rank, int src, int tag) {
  assert(rank >= 0 && rank < size());
  if (src == kAnySource || tag == kAnyTag) {
    throw std::invalid_argument(
        "ShardedComm: wildcard receives (kAnySource/kAnyTag) are not "
        "supported across shards — conservative matching needs an exact "
        "envelope (no workload in src/apps uses wildcards)");
  }
  const int a = plan_.shard_of(rank);
  if (plan_.shard_of(src) == a) {
    return inner_[static_cast<std::size_t>(a)]->irecv(plan_.local_of(rank),
                                                      plan_.local_of(src), tag);
  }
  Request req = standalone_request(engines_.shard(a));
  sim::spawn(engines_.shard(a), xrecv_proc(rank, src, tag, req));
  return req;
}

sim::Process ShardedComm::xsend_proc(int rank, int dst, int tag,
                                     std::int64_t bytes, Request req) {
  const int a = plan_.shard_of(rank);
  const int b = plan_.shard_of(dst);
  auto& cpu = node(rank).cpu();
  co_await cpu.run_commproc_cycles(protocol_cycles(bytes));

  auto st = std::allocate_shared<XSendState>(sim::PoolAllocator<XSendState>{}, engines_.shard(a));
  // The XMsg is plain data until the announce lands: its `delivered` Event
  // is bound to the receiving engine but not touched before then, and the
  // barrier hand-off orders this construction before any receiver access.
  auto msg = std::allocate_shared<XMsg>(sim::PoolAllocator<XMsg>{}, engines_.shard(b));
  msg->src = rank;
  msg->dst = dst;
  msg->tag = tag;
  msg->bytes = bytes;
  msg->rendezvous = bytes > costs_.eager_limit;
  msg->src_shard = a;
  msg->sender = st;
  engines_.post(a, b, engines_.shard(a).now() + lookahead_,
                [this, msg] { on_envelope(msg); }, "mpi.xshard.announce");

  co_await st->acked.wait();
  CommStats& cs = xstats_[static_cast<std::size_t>(a)];
  ++cs.messages;
  cs.bytes += bytes;
  req->bytes = bytes;
  req->done.set();
}

sim::Process ShardedComm::xrecv_proc(int rank, int src, int tag, Request req) {
  XMailbox& mb = xmail_.at(static_cast<std::size_t>(rank));
  std::shared_ptr<XMsg> msg;
  for (auto it = mb.sends.begin(); it != mb.sends.end(); ++it) {
    if ((*it)->src == src && (*it)->tag == tag) {
      msg = *it;
      mb.sends.erase(it);
      break;
    }
  }
  if (msg) {
    complete_match(msg);
  } else {
    auto post = std::allocate_shared<XRecvPost>(sim::PoolAllocator<XRecvPost>{}, engine_of(rank));
    post->src = src;
    post->tag = tag;
    mb.recvs.push_back(post);
    co_await post->matched.wait();
    msg = post->msg;
  }

  co_await msg->delivered.wait();
  co_await node(rank).cpu().run_commproc_cycles(protocol_cycles(msg->bytes));
  req->bytes = msg->bytes;
  req->done.set();
}

// Runs on the destination shard at announce arrival.
void ShardedComm::on_envelope(const std::shared_ptr<XMsg>& msg) {
  msg->arrival = engine_of(msg->dst).now();
  XMailbox& mb = xmail_.at(static_cast<std::size_t>(msg->dst));
  for (auto it = mb.recvs.begin(); it != mb.recvs.end(); ++it) {
    if ((*it)->src == msg->src && (*it)->tag == msg->tag) {
      auto post = *it;
      mb.recvs.erase(it);
      post->msg = msg;
      post->matched.set();
      complete_match(msg);
      return;
    }
  }
  mb.sends.push_back(msg);
}

// Runs on the destination shard at match time; computes delivery timing.
void ShardedComm::complete_match(const std::shared_ptr<XMsg>& msg) {
  sim::Engine& eng = engine_of(msg->dst);
  const sim::SimTime tm = eng.now();
  sim::SimTime td;
  if (msg->rendezvous) {
    // Grant hop back to the sender (L), data ships and crosses (L + wire).
    // The grant carries no sender-side action — the sender is parked on the
    // ack either way — so the receiver folds both hops into the delivery
    // time instead of posting a real grant message.
    td = tm + 2 * lookahead_ + wire_time(msg->bytes);
  } else {
    // Eager: the payload travelled with the announce and finishes
    // serializing at arrival + wire; delivery also needs the match.
    td = std::max(tm, msg->arrival + wire_time(msg->bytes));
  }
  eng.schedule_at(td, [this, msg] { deliver(msg); }, "mpi.xshard.deliver");
}

// Runs on the destination shard at delivery time.
void ShardedComm::deliver(const std::shared_ptr<XMsg>& msg) {
  msg->delivered.set();
  const int b = plan_.shard_of(msg->dst);
  engines_.post(b, msg->src_shard, engine_of(msg->dst).now() + lookahead_,
                [st = msg->sender] { st->acked.set(); }, "mpi.xshard.ack");
}

}  // namespace pcd::mpi
