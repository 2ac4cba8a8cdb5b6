// Tests for the simulated MPI layer over the cluster model.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <optional>
#include <vector>

#include "machine/cluster.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/provenance.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"

namespace sim = pcd::sim;
using pcd::machine::Cluster;
using pcd::machine::ClusterConfig;
using pcd::mpi::Comm;
using pcd::mpi::CostParams;

namespace {

ClusterConfig small_cluster(int nodes) {
  ClusterConfig c;
  c.nodes = nodes;
  c.network.collision_coeff = 0.0;  // deterministic timing in unit tests
  c.node.cpu.transition_min = c.node.cpu.transition_max = sim::from_micros(20);
  return c;
}

struct MpiFixture {
  sim::Engine engine;
  Cluster cluster;
  Comm comm;
  explicit MpiFixture(int ranks, CostParams costs = {})
      : cluster(engine, small_cluster(ranks)), comm(cluster, iota(ranks), costs) {}

  static std::vector<int> iota(int n) {
    std::vector<int> v(n);
    std::iota(v.begin(), v.end(), 0);
    return v;
  }
};

}  // namespace

TEST(Mpi, BlockingSendRecvDeliversBytes) {
  MpiFixture f(2);
  std::int64_t got = 0;
  auto sender = [&]() -> sim::Process { co_await f.comm.send(0, 1, 5, 4096); };
  auto receiver = [&]() -> sim::Process { got = co_await f.comm.recv(1, 0, 5); };
  sim::spawn(f.engine, sender());
  sim::spawn(f.engine, receiver());
  f.engine.run();
  EXPECT_EQ(got, 4096);
  EXPECT_EQ(f.comm.stats().messages, 1);
  EXPECT_EQ(f.comm.stats().bytes, 4096);
}

TEST(Mpi, MessagesBetweenSamePairAreOrdered) {
  MpiFixture f(2);
  std::vector<std::int64_t> got;
  auto sender = [&]() -> sim::Process {
    co_await f.comm.send(0, 1, 1, 100);
    co_await f.comm.send(0, 1, 1, 200);
    co_await f.comm.send(0, 1, 1, 300);
  };
  auto receiver = [&]() -> sim::Process {
    for (int i = 0; i < 3; ++i) got.push_back(co_await f.comm.recv(1, 0, 1));
  };
  sim::spawn(f.engine, sender());
  sim::spawn(f.engine, receiver());
  f.engine.run();
  EXPECT_EQ(got, (std::vector<std::int64_t>{100, 200, 300}));
}

TEST(Mpi, TagsSelectMessages) {
  MpiFixture f(2);
  std::int64_t got_a = 0, got_b = 0;
  auto sender = [&]() -> sim::Process {
    std::vector<Comm::Request> reqs;
    reqs.push_back(f.comm.isend(0, 1, /*tag=*/7, 111));
    reqs.push_back(f.comm.isend(0, 1, /*tag=*/9, 222));
    co_await f.comm.waitall(0, std::move(reqs));
  };
  auto receiver = [&]() -> sim::Process {
    got_b = co_await f.comm.recv(1, 0, 9);  // out of arrival order
    got_a = co_await f.comm.recv(1, 0, 7);
  };
  sim::spawn(f.engine, sender());
  sim::spawn(f.engine, receiver());
  f.engine.run();
  EXPECT_EQ(got_a, 111);
  EXPECT_EQ(got_b, 222);
}

TEST(Mpi, AnySourceReceivesFromEither) {
  MpiFixture f(3);
  std::int64_t total = 0;
  auto sender = [&](int rank) -> sim::Process { co_await f.comm.send(rank, 2, 1, 50); };
  auto receiver = [&]() -> sim::Process {
    total += co_await f.comm.recv(2, Comm::kAnySource, 1);
    total += co_await f.comm.recv(2, Comm::kAnySource, 1);
  };
  sim::spawn(f.engine, sender(0));
  sim::spawn(f.engine, sender(1));
  sim::spawn(f.engine, receiver());
  f.engine.run();
  EXPECT_EQ(total, 100);
}

TEST(Mpi, EagerSendCompletesWithoutReceiver) {
  CostParams costs;
  costs.eager_limit = 64 * 1024;
  MpiFixture f(2, costs);
  bool sent = false;
  auto sender = [&]() -> sim::Process {
    co_await f.comm.send(0, 1, 1, 1024);  // below eager limit
    sent = true;
  };
  sim::spawn(f.engine, sender());
  f.engine.run();
  EXPECT_TRUE(sent);  // no matching recv ever posted
}

TEST(Mpi, RendezvousSendWaitsForReceivePosting) {
  CostParams costs;
  costs.eager_limit = 1024;
  MpiFixture f(2, costs);
  sim::SimTime sent_at = 0, recv_posted_at = 0;
  auto sender = [&]() -> sim::Process {
    co_await f.comm.send(0, 1, 1, 1'000'000);  // rendezvous
    sent_at = f.engine.now();
  };
  auto receiver = [&]() -> sim::Process {
    co_await sim::delay(2 * sim::kSecond);  // receiver is late
    recv_posted_at = f.engine.now();
    co_await f.comm.recv(1, 0, 1);
  };
  sim::spawn(f.engine, sender());
  sim::spawn(f.engine, receiver());
  f.engine.run();
  EXPECT_GE(sent_at, recv_posted_at);
  EXPECT_GE(sent_at, 2 * sim::kSecond);
}

TEST(Mpi, UnmatchedRecvNeverCompletes) {
  MpiFixture f(2);
  auto req = f.comm.irecv(1, 0, 1);
  f.engine.run();
  EXPECT_FALSE(req->done.signaled());
}

TEST(Mpi, WaitallCompletesAllRequests) {
  MpiFixture f(2);
  auto sender = [&]() -> sim::Process {
    std::vector<Comm::Request> reqs;
    for (int i = 0; i < 4; ++i) reqs.push_back(f.comm.isend(0, 1, i, 2048));
    co_await f.comm.waitall(0, reqs);
    for (const auto& r : reqs) EXPECT_TRUE(r->done.signaled());
  };
  auto receiver = [&]() -> sim::Process {
    for (int i = 0; i < 4; ++i) co_await f.comm.recv(1, 0, i);
  };
  sim::spawn(f.engine, sender());
  sim::spawn(f.engine, receiver());
  f.engine.run();
}

TEST(Mpi, CpuIsWaitPollingDuringBlockingRecv) {
  MpiFixture f(2);
  auto receiver = [&]() -> sim::Process { co_await f.comm.recv(1, 0, 1); };
  auto sender = [&]() -> sim::Process {
    co_await sim::delay(sim::kSecond);
    co_await f.comm.send(0, 1, 1, 100);
  };
  sim::spawn(f.engine, receiver());
  sim::spawn(f.engine, sender());
  pcd::cpu::CpuState seen{};
  f.engine.schedule_at(500 * sim::kMillisecond,
                       [&] { seen = f.cluster.node(1).cpu().state(); });
  f.engine.run();
  EXPECT_EQ(seen, pcd::cpu::CpuState::WaitPoll);
}

// ---- Collectives ------------------------------------------------------------

namespace {

// Runs `body(rank)` on every rank and returns per-rank completion times.
template <typename MakeProc>
std::vector<sim::SimTime> run_all(MpiFixture& f, int ranks, MakeProc make) {
  std::vector<sim::SimTime> done(ranks, 0);
  for (int r = 0; r < ranks; ++r) {
    sim::spawn(f.engine, make(r, &done[r]));
  }
  f.engine.run();
  return done;
}

}  // namespace

TEST(Mpi, BarrierSynchronizesAllRanks) {
  MpiFixture f(8);
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await sim::delay(rank * 100 * sim::kMillisecond);  // staggered arrival
    co_await f.comm.barrier(rank);
    *out = f.engine.now();
  };
  auto done = run_all(f, 8, proc);
  // No rank may leave before the last (rank 7) arrives at t = 700 ms.
  for (auto t : done) EXPECT_GE(t, 700 * sim::kMillisecond);
}

TEST(Mpi, BcastDeliversToAllRanks) {
  MpiFixture f(8);
  int received = 0;
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.bcast(rank, /*root=*/3, 100'000);
    ++received;
    *out = f.engine.now();
  };
  run_all(f, 8, proc);
  EXPECT_EQ(received, 8);
  // Binomial tree over 8 ranks: 7 messages.
  EXPECT_EQ(f.comm.stats().messages, 7);
}

TEST(Mpi, ReduceConvergesAtRoot) {
  MpiFixture f(8);
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.reduce(rank, /*root=*/0, 50'000);
    *out = f.engine.now();
  };
  auto done = run_all(f, 8, proc);
  EXPECT_EQ(f.comm.stats().messages, 7);
  // Leaves finish before the root.
  EXPECT_GT(done[0], done[7]);
}

TEST(Mpi, AllreduceCompletesEverywhere) {
  MpiFixture f(8);
  int completed = 0;
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.allreduce(rank, 10'000);
    ++completed;
    *out = f.engine.now();
  };
  run_all(f, 8, proc);
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(f.comm.stats().messages, 14);  // reduce 7 + bcast 7
}

TEST(Mpi, AlltoallExchangesAllPairs) {
  MpiFixture f(8);
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.alltoall(rank, 10'000);
    *out = f.engine.now();
  };
  run_all(f, 8, proc);
  EXPECT_EQ(f.comm.stats().messages, 8 * 7);
  EXPECT_EQ(f.comm.stats().bytes, 8 * 7 * 10'000);
}

TEST(Mpi, AlltoallvRespectsPerDestinationSizes) {
  MpiFixture f(4);
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    std::vector<std::int64_t> sizes(4, 0);
    for (int d = 0; d < 4; ++d) {
      if (d != rank) sizes[d] = 1000 * (rank + 1);
    }
    co_await f.comm.alltoallv(rank, std::move(sizes));
    *out = f.engine.now();
  };
  run_all(f, 4, proc);
  // Total bytes: sum over ranks of 3 * 1000 * (rank+1).
  EXPECT_EQ(f.comm.stats().bytes, 3000 * (1 + 2 + 3 + 4));
}

TEST(Mpi, AlltoallvRejectsWrongSizeVector) {
  MpiFixture f(4);
  EXPECT_THROW(
      {
        auto op = f.comm.alltoallv(0, {1, 2});
        (void)op;
      },
      std::invalid_argument);
}

TEST(Mpi, AllgatherRingMessageCount) {
  MpiFixture f(6);
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.allgather(rank, 5'000);
    *out = f.engine.now();
  };
  run_all(f, 6, proc);
  EXPECT_EQ(f.comm.stats().messages, 6 * 5);  // P*(P-1) ring steps
}

TEST(Mpi, BackToBackCollectivesDoNotCrossTalk) {
  MpiFixture f(4);
  int phase_errors = 0;
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    for (int it = 0; it < 5; ++it) {
      co_await f.comm.barrier(rank);
      co_await f.comm.alltoall(rank, 1000);
      co_await f.comm.allreduce(rank, 500);
    }
    *out = f.engine.now();
  };
  auto done = run_all(f, 4, proc);
  for (auto t : done) {
    if (t == 0) ++phase_errors;
  }
  EXPECT_EQ(phase_errors, 0);
}

TEST(Mpi, NonPowerOfTwoRanks) {
  MpiFixture f(9);  // BT/SP run on 9 nodes in the paper
  int completed = 0;
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.barrier(rank);
    co_await f.comm.alltoall(rank, 1000);
    co_await f.comm.bcast(rank, 0, 1000);
    co_await f.comm.reduce(rank, 0, 1000);
    ++completed;
    *out = f.engine.now();
  };
  run_all(f, 9, proc);
  EXPECT_EQ(completed, 9);
}

TEST(Mpi, SingleRankCollectivesAreNoops) {
  MpiFixture f(1);
  bool done = false;
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.barrier(rank);
    co_await f.comm.alltoall(rank, 1000);
    co_await f.comm.allreduce(rank, 1000);
    done = true;
    *out = f.engine.now();
  };
  run_all(f, 1, proc);
  EXPECT_TRUE(done);
  EXPECT_EQ(f.comm.stats().messages, 0);
}

// ---- Trace integration ------------------------------------------------------

TEST(MpiTrace, BlockingCallsRecordScopes) {
  sim::Engine engine;
  Cluster cluster(engine, small_cluster(2));
  pcd::trace::Tracer tracer(engine, 2);
  Comm comm(cluster, {0, 1}, CostParams{}, &tracer);
  auto sender = [&]() -> sim::Process { co_await comm.send(0, 1, 1, 100'000); };
  auto receiver = [&]() -> sim::Process { co_await comm.recv(1, 0, 1); };
  sim::spawn(engine, sender());
  sim::spawn(engine, receiver());
  engine.run();
  auto profile = pcd::trace::analyze(tracer);
  EXPECT_EQ(profile.ranks[0].sends, 1);
  EXPECT_EQ(profile.ranks[1].recvs, 1);
  EXPECT_GT(profile.ranks[0].send_s, 0);
  EXPECT_GT(profile.ranks[1].recv_s, 0);
}

TEST(MpiTrace, CollectiveSuppressesNestedP2p) {
  sim::Engine engine;
  Cluster cluster(engine, small_cluster(4));
  pcd::trace::Tracer tracer(engine, 4);
  Comm comm(cluster, {0, 1, 2, 3}, CostParams{}, &tracer);
  auto proc = [&](int rank) -> sim::Process { co_await comm.alltoall(rank, 10'000); };
  for (int r = 0; r < 4; ++r) sim::spawn(engine, proc(r));
  engine.run();
  auto profile = pcd::trace::analyze(tracer);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(profile.ranks[r].collectives, 1);
    EXPECT_EQ(profile.ranks[r].waits, 0);  // nested waits suppressed
  }
}

// ---- Pinned point-to-point path ---------------------------------------------
//
// Absolute fingerprints of small runs through every branch of the message
// protocol: the number of dispatched events, the event-order digest (which
// folds time, seq, parent and site label of each dispatch), the MPI match
// digest, and, for the traced case, the tracer's send/delivered/recv-done
// edges.  Any change to when or from where the protocol schedules a step
// moves them; re-pin only on an intended change of the simulated behaviour.

namespace {

struct PathPin {
  std::uint64_t events = 0;
  std::uint64_t event_hash = 0;
  std::uint64_t matches = 0;
  std::uint64_t match_hash = 0;
  std::uint64_t trace_hash = 0;  // 0 for untraced runs

  friend bool operator==(const PathPin&, const PathPin&) = default;
};

void PrintTo(const PathPin& p, std::ostream* os) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{%" PRIu64 ", 0x%016" PRIx64 ", %" PRIu64 ", 0x%016" PRIx64
                ", 0x%016" PRIx64 "}",
                p.events, p.event_hash, p.matches, p.match_hash, p.trace_hash);
  *os << buf;
}

// Runs body(comm, rank) as every rank's process to completion and returns
// the run's fingerprint.
template <typename Body>
PathPin run_pinned(int ranks, CostParams costs, bool traced, Body body) {
  sim::Engine engine;
  sim::DigestStream events, matches;
  sim::Engine::DeterminismHooks hooks;
  hooks.event_digest = &events;
  engine.set_determinism(hooks);
  Cluster cluster(engine, small_cluster(ranks));
  std::optional<pcd::trace::Tracer> tracer;
  if (traced) tracer.emplace(engine, ranks);
  Comm comm(cluster, MpiFixture::iota(ranks), costs, tracer ? &*tracer : nullptr);
  comm.set_digest(&matches);
  for (int r = 0; r < ranks; ++r) sim::spawn(engine, body(comm, r));
  engine.run();
  PathPin pin{events.count, events.hash, matches.count, matches.hash, 0};
  if (tracer) {
    sim::DigestStream edges;
    for (const auto& m : tracer->messages()) {
      const std::uint64_t rec[7] = {
          static_cast<std::uint64_t>(m.src),        static_cast<std::uint64_t>(m.dst),
          static_cast<std::uint64_t>(m.tag),        static_cast<std::uint64_t>(m.bytes),
          static_cast<std::uint64_t>(m.t_send),     static_cast<std::uint64_t>(m.t_delivered),
          static_cast<std::uint64_t>(m.t_recv_done)};
      edges.fold_record(rec, 7);
    }
    pin.trace_hash = edges.hash;
  }
  return pin;
}

// Rank 1 posts both receives (in reverse tag order) before rank 0 sends.
sim::Process recv_first(Comm& comm, int rank, std::int64_t bytes) {
  if (rank == 1) {
    std::vector<Comm::Request> reqs;
    reqs.push_back(comm.irecv(1, 0, 4));
    reqs.push_back(comm.irecv(1, 0, 3));
    co_await comm.waitall(1, std::move(reqs));
  } else {
    co_await sim::delay(sim::kMillisecond);
    std::vector<Comm::Request> reqs;
    reqs.push_back(comm.isend(0, 1, 3, bytes));
    reqs.push_back(comm.isend(0, 1, 4, bytes / 2));
    co_await comm.waitall(0, std::move(reqs));
  }
}

// Rank 0 sends both messages before rank 1 posts its receives.
sim::Process send_first(Comm& comm, int rank, std::int64_t bytes) {
  if (rank == 0) {
    std::vector<Comm::Request> reqs;
    reqs.push_back(comm.isend(0, 1, 3, bytes));
    reqs.push_back(comm.isend(0, 1, 4, bytes / 2));
    co_await comm.waitall(0, std::move(reqs));
  } else {
    co_await sim::delay(5 * sim::kMillisecond);
    std::vector<Comm::Request> reqs;
    reqs.push_back(comm.irecv(1, 0, 4));
    reqs.push_back(comm.irecv(1, 0, 3));
    co_await comm.waitall(1, std::move(reqs));
  }
}

}  // namespace

TEST(MpiPinned, EagerReceivePostedFirst) {
  const PathPin pin = run_pinned(2, CostParams{}, false, [](Comm& c, int r) {
    return recv_first(c, r, 4096);
  });
  EXPECT_EQ(pin, (PathPin{25, 0xd76ec6d75eb45f35, 2, 0x907c5cf47e5c9977, 0}));
}

TEST(MpiPinned, EagerSendFirstQueuesUnexpected) {
  const PathPin pin = run_pinned(2, CostParams{}, false, [](Comm& c, int r) {
    return send_first(c, r, 4096);
  });
  EXPECT_EQ(pin, (PathPin{22, 0x3c9f695180ef4531, 2, 0x9ef140f3ecd9f8b0, 0}));
}

TEST(MpiPinned, RendezvousReceivePostedFirst) {
  const PathPin pin = run_pinned(2, CostParams{}, false, [](Comm& c, int r) {
    return recv_first(c, r, 400'000);
  });
  EXPECT_EQ(pin, (PathPin{25, 0x9c0e2a2ca14e0915, 2, 0x52806038bbca8397, 0}));
}

TEST(MpiPinned, RendezvousSendFirst) {
  const PathPin pin = run_pinned(2, CostParams{}, false, [](Comm& c, int r) {
    return send_first(c, r, 400'000);
  });
  EXPECT_EQ(pin, (PathPin{25, 0x5c539fcf62aec199, 2, 0x5eedbfe484980c70, 0}));
}

TEST(MpiPinned, WildcardReceives) {
  // Rank 2 posts two wildcard receives up front and a third after both
  // senders have sent, so the wildcard matches on both queues.
  const PathPin pin = run_pinned(3, CostParams{}, false, [](Comm& c, int r) -> sim::Process {
    if (r == 2) {
      std::vector<Comm::Request> reqs;
      reqs.push_back(c.irecv(2, Comm::kAnySource, Comm::kAnyTag));
      reqs.push_back(c.irecv(2, Comm::kAnySource, Comm::kAnyTag));
      co_await c.waitall(2, std::move(reqs));
      co_await sim::delay(20 * sim::kMillisecond);
      co_await c.recv(2, Comm::kAnySource, Comm::kAnyTag);
      co_await c.recv(2, 1, Comm::kAnyTag);
    } else {
      co_await sim::delay(r * sim::kMillisecond);
      std::vector<Comm::Request> reqs;
      reqs.push_back(c.isend(r, 2, 5 + r, r == 0 ? 1000 : 100'000));
      reqs.push_back(c.isend(r, 2, 7 + r, 2000));
      co_await c.waitall(r, std::move(reqs));
    }
  });
  EXPECT_EQ(pin, (PathPin{47, 0xba10bfe991717cab, 4, 0x5708eea6f674eb2c, 0}));
}

TEST(MpiPinned, ZeroProtocolCyclesContinueInline) {
  // No protocol work: every step that would run CPU work continues in the
  // same event.  Covers both orders, a rendezvous and a self-send.
  const PathPin pin =
      run_pinned(2, CostParams{0, 0, 64 * 1024}, false, [](Comm& c, int r) -> sim::Process {
        const int peer = 1 - r;
        std::vector<Comm::Request> reqs;
        if (r == 1) co_await sim::delay(sim::kMillisecond);
        reqs.push_back(c.irecv(r, peer, 1));
        reqs.push_back(c.isend(r, peer, 1, 100'000));
        reqs.push_back(c.isend(r, peer, 2, 512));
        reqs.push_back(c.irecv(r, peer, 2));
        reqs.push_back(c.isend(r, r, 3, 2048));
        reqs.push_back(c.irecv(r, r, 3));
        co_await c.waitall(r, std::move(reqs));
      });
  EXPECT_EQ(pin, (PathPin{42, 0x8968f36e7d862128, 6, 0x82b86005f90261c3, 0}));
}

TEST(MpiPinned, TracedExchangeLogsEveryEdge) {
  // A CG-shaped pairwise exchange plus collectives, with the tracer on.
  const PathPin pin = run_pinned(4, CostParams{}, true, [](Comm& c, int r) -> sim::Process {
    for (int round = 0; round < 3; ++round) {
      const int peer = r ^ (1 << (round % 2));
      std::vector<Comm::Request> reqs;
      reqs.push_back(c.irecv(r, peer, round));
      reqs.push_back(c.isend(r, peer, round, 64 * 1024 + round * 40'000));
      co_await c.waitall(r, std::move(reqs));
      co_await c.allreduce(r, 8);
    }
    co_await c.barrier(r);
  });
  EXPECT_EQ(pin, (PathPin{399, 0xb3946e70f90939bb, 38, 0x174e1d55953f3b97, 0x5d6645b3017eb9ff}));
}

// ---- Teardown ---------------------------------------------------------------

TEST(MpiTeardown, CompletedRunReleasesEveryRecord) {
  MpiFixture f(2);
  auto proc = [&](int rank) -> sim::Process {
    const int peer = 1 - rank;
    std::vector<Comm::Request> reqs;
    reqs.push_back(f.comm.irecv(rank, peer, 1));
    reqs.push_back(f.comm.isend(rank, peer, 1, 200'000));  // rendezvous
    reqs.push_back(f.comm.isend(rank, peer, 2, 100));       // eager
    reqs.push_back(f.comm.irecv(rank, peer, 2));
    co_await f.comm.waitall(rank, std::move(reqs));
  };
  sim::spawn(f.engine, proc(0));
  sim::spawn(f.engine, proc(1));
  f.engine.run();
  EXPECT_EQ(f.comm.live_records(), 0u);
}

TEST(MpiTeardown, DroppedRequestStillFinishesItsProtocol) {
  MpiFixture f(2);
  f.comm.isend(0, 1, 1, 4096);  // Request dropped at once
  auto recv = f.comm.irecv(1, 0, 1);
  EXPECT_EQ(f.comm.live_records(), 2u);
  f.engine.run();
  EXPECT_TRUE(recv->done.signaled());
  EXPECT_EQ(recv->bytes, 4096);
  EXPECT_EQ(f.comm.stats().messages, 1);
  EXPECT_EQ(f.comm.live_records(), 0u);
}

TEST(MpiTeardown, DeliveredEagerSendWaitsInTheUnexpectedQueue) {
  MpiFixture f(2);
  f.comm.isend(0, 1, 1, 512);
  f.engine.run();
  EXPECT_EQ(f.comm.stats().messages, 1);
  EXPECT_EQ(f.comm.live_records(), 1u);  // until a receive matches it
  auto recv = f.comm.irecv(1, 0, 1);
  f.engine.run();
  EXPECT_TRUE(recv->done.signaled());
  EXPECT_EQ(f.comm.live_records(), 0u);
}

TEST(MpiTeardown, AbandonedRunWithMessagesInFlightFreesEverything) {
  // Stops mid-protocol: a rendezvous send parked on its grant, an eager
  // message on the wire, protocol work running with more queued behind it,
  // a receive that never matches, and requests the ranks dropped.  The communicator and the
  // engine are torn down with all of it pending; the leak checker (ASan
  // with detect_leaks=1) and the record count confirm nothing survives.
  sim::Engine engine;
  std::optional<Cluster> cluster(std::in_place, engine, small_cluster(3));
  std::optional<Comm> comm(std::in_place, *cluster, MpiFixture::iota(3));
  auto rank0 = [&]() -> sim::Process {
    std::vector<Comm::Request> reqs;
    reqs.push_back(comm->isend(0, 1, 1, 400'000));  // rendezvous, never granted
    reqs.push_back(comm->isend(0, 2, 2, 60'000));  // eager, on the wire at the cut
    comm->isend(0, 2, 3, 64);                        // dropped, queued at the NIC
    co_await comm->waitall(0, std::move(reqs));
  };
  auto rank1 = [&]() -> sim::Process {
    co_await sim::delay(sim::from_millis(0.45));
    auto big = comm->isend(1, 0, 5, 2'000'000);  // protocol work running at the cut
    auto queued = comm->isend(1, 2, 6, 100);     // CPU work queued behind it
    co_await comm->wait(1, big);
  };
  auto rank2 = [&]() -> sim::Process {
    auto never = comm->irecv(2, 1, 9);  // no such send
    comm->irecv(2, 0, 3);               // dropped, matched
    comm->irecv(2, 0, 2);               // dropped, matched, data in flight
    co_await comm->wait(2, never);
  };
  sim::spawn(engine, rank0());
  sim::spawn(engine, rank1());
  sim::spawn(engine, rank2());
  engine.run_until(sim::from_millis(0.5));
  EXPECT_EQ(comm->live_records(), 8u);  // every side of every message
  EXPECT_EQ(cluster->node(1).cpu().state(), pcd::cpu::CpuState::CommProc);
  EXPECT_EQ(cluster->network().in_flight(), 2);  // 60 KB on the wire, 64 B behind it
  // Ranks 0 and 2 are parked in a wait; tearing their frames down leaves
  // WaitPoll (a second leave would trip Cpu::leave_wait's assert).
  EXPECT_EQ(cluster->node(0).cpu().state(), pcd::cpu::CpuState::WaitPoll);
  EXPECT_EQ(cluster->node(2).cpu().state(), pcd::cpu::CpuState::WaitPoll);
  engine.destroy_suspended_frames();
  EXPECT_EQ(cluster->node(0).cpu().state(), pcd::cpu::CpuState::Idle);
  EXPECT_EQ(cluster->node(2).cpu().state(), pcd::cpu::CpuState::Idle);
  comm.reset();
  cluster.reset();
}
